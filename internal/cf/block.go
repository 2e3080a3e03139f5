package cf

import (
	"fmt"
	"math"

	"birch/internal/vec"
)

// Block is a CF-tree node's scan slab: contiguous arrays (plus an []int64
// for N) holding every entry's candidate-side hoisted terms for the
// closest-entry scan. Where the per-entry kernel path chases each Entry's
// separately allocated LS vector and pays an indirect Kernel call per
// candidate, a Block lets the fused ScanKernel implementations walk one
// slab linearly with zero calls per candidate.
//
// Under the classic backend there are two float64 slabs, one per metric
// family, each packed so a scan is a single contiguous stream with no
// side lookups:
//
//	x0 slab, stride dim+1 per entry:
//	    x0[0..dim)  — centroid components LS[j]/N (the candidate-side
//	                  division D0, D1 and D4 perform per component)
//	    float64(N)  — the conversion D4 performs, hoisted
//	ls slab, stride dim+3 per entry:
//	    ls[0..dim)  — the raw linear sum (D2's dot product, D3's merged sum)
//	    SS/N        — the candidate's constant term in D2
//	    SS          — the raw square sum (D3's merged square sum)
//	    float64(N)  — the conversion D2 performs, hoisted
//
// D0/D1/D4 stream the x0 slab; D2/D3 stream the ls slab (D3 additionally
// reads the integer n array, because its kernel adds the counts before
// converting). Splitting by family matters: an interleaved everything-
// per-entry layout would drag the unused family's bytes through the cache
// on every scan, which costs more than the indirect calls it saves.
//
// Under the BETULA backend the x0 slab stores the entry means verbatim
// (the mean IS the centroid, so D0/D1/D4 scans are shared unchanged) and
// the ls slab is not maintained at all; the betula D2/D3 forms need only
// two scalars per entry, kept in the small sb side slab:
//
//	sb slab, stride 2 per entry:  S/N, S   (deviation-sum terms)
//
// which halves the per-node float64 footprint relative to classic.
//
// Both backends additionally maintain the one-word cn side slab: slot i's
// centroid norm ‖x0ᵢ‖, computed from the just-written x0 slab row by the
// same accumulate-squares-then-sqrt operations the cosine kernel performs
// on its candidate side (setNorm). DCos scans read it instead of
// re-deriving the norm per scan, which is what makes the cosine metric's
// fused path a pure dot-product stream — and the sparse gather kernels
// O(nnz) instead of O(d) per candidate.
//
// The hoisted values are computed by exactly the floating-point
// operations the kernels would perform (v/float64(N), SS/float64(N),
// float64(N)) on the same operands, so consuming a slot is bit-identical
// to recomputing from the entry's CF — the exactness contract CheckSync
// enforces and the cftree fuzzer drives.
//
// A Block is maintained incrementally: owners refresh the one slot whose
// entry changed (Set after a merge, Append for a new entry) and never
// rebuild the slab wholesale on the hot path. Set writes in place and the
// backing arrays are pre-sized at construction, so slot maintenance on the
// absorb path performs zero heap allocations.
type Block struct {
	dim  int
	kind CoreKind
	n    []int64
	x0   []float64 // dim+1 floats per entry: centroid, float64(N)
	ls   []float64 // classic: dim+3 floats per entry: raw LS, SS/N, SS, float64(N)
	sb   []float64 // betula: 2 floats per entry: S/N, S
	cn   []float64 // 1 float per entry: centroid norm ‖x0‖ (DCos candidate term)
}

// Slab strides per entry.
func (b *Block) x0Stride() int { return b.dim + 1 }
func (b *Block) lsStride() int { return b.dim + 3 }

// NewBlock returns an empty classic Block for entries of dimension dim,
// pre-sized so the first capEntries appends do not reallocate.
func NewBlock(dim, capEntries int) *Block {
	return NewBlockOpts(dim, capEntries, CoreClassic)
}

// NewBlockOpts returns an empty Block for entries of dimension dim under
// the given CF-core backend, pre-sized so the first capEntries appends do
// not reallocate.
func NewBlockOpts(dim, capEntries int, kind CoreKind) *Block {
	if dim <= 0 {
		panic("cf: NewBlock with non-positive dimension")
	}
	if !kind.Valid() {
		panic("cf: NewBlock with invalid core kind")
	}
	b := &Block{
		dim:  dim,
		kind: kind,
		n:    make([]int64, 0, capEntries),
		x0:   make([]float64, 0, capEntries*(dim+1)),
		cn:   make([]float64, 0, capEntries),
	}
	if kind == CoreBETULA {
		b.sb = make([]float64, 0, capEntries*2)
	} else {
		b.ls = make([]float64, 0, capEntries*(dim+3))
	}
	return b
}

// Len returns the number of entry slots currently in the block.
func (b *Block) Len() int { return len(b.n) }

// Dim returns the dimensionality the block was built for.
func (b *Block) Dim() int { return b.dim }

// Kind returns the CF-core backend the block's slots are derived under.
func (b *Block) Kind() CoreKind { return b.kind }

// EntryN returns slot i's point count.
func (b *Block) EntryN(i int) int64 { return b.n[i] }

// Set recomputes slot i from c. c must be non-empty, of the block's
// dimension and backend kind; this is the only place slot values are
// derived, so every slot always carries exactly the bits a kernel would
// recompute.
//
//birchlint:hotpath
func (b *Block) Set(i int, c *CF) {
	if c.N <= 0 {
		panic("cf: Block.Set with empty CF")
	}
	if len(c.LS) != b.dim {
		panic("cf: Block.Set dimension mismatch")
	}
	if c.kind != b.kind {
		panic("cf: Block.Set core kind mismatch")
	}
	n := float64(c.N)
	d := b.dim
	xoff := i * (d + 1)
	x0 := b.x0[xoff : xoff+d : xoff+d]
	if b.kind == CoreBETULA {
		copy(x0, c.LS)
		b.x0[xoff+d] = n
		b.sb[2*i] = c.SS / n
		b.sb[2*i+1] = c.SS
	} else {
		loff := i * (d + 3)
		ls := b.ls[loff : loff+d : loff+d]
		for j, v := range c.LS {
			x0[j] = v / n
			ls[j] = v
		}
		b.x0[xoff+d] = n
		b.ls[loff+d] = c.SS / n
		b.ls[loff+d+1] = c.SS
		b.ls[loff+d+2] = n
	}
	b.n[i] = c.N
	b.setNorm(i)
}

// Append adds a slot for c at the end of the block.
//
//birchlint:hotpath
func (b *Block) Append(c *CF) {
	b.appendSlot()
	b.Set(len(b.n)-1, c)
}

// SetPoint writes slot i as the singleton CF of point p without
// materializing the CF. The stored bits are exactly what
// Set(i, core.FromPoint(p)) would store: with N = 1 the hoisted divisions
// LS[j]/N and SS/N reproduce their operands bit-for-bit (IEEE division
// by 1.0 is exact), and a singleton's mean is the point with deviation
// sum 0, so CheckSync against the singleton CF holds under either
// backend. Flat centroid blocks — the serving-path packing behind the
// nearest-centroid argmin of Phase 4 assignment, Lloyd iteration and
// Classify — use this to re-pack moving centroids in place with zero
// allocations.
//
//birchlint:hotpath
func (b *Block) SetPoint(i int, p vec.Vector) {
	if len(p) != b.dim {
		panic("cf: Block.SetPoint dimension mismatch")
	}
	d := b.dim
	xoff := i * (d + 1)
	x0 := b.x0[xoff : xoff+d : xoff+d]
	if b.kind == CoreBETULA {
		copy(x0, p)
		b.x0[xoff+d] = 1
		b.sb[2*i] = 0
		b.sb[2*i+1] = 0
	} else {
		loff := i * (d + 3)
		ss := p.SqNorm()
		ls := b.ls[loff : loff+d : loff+d]
		for j, v := range p {
			x0[j] = v
			ls[j] = v
		}
		b.x0[xoff+d] = 1
		b.ls[loff+d] = ss // SS/N with N = 1
		b.ls[loff+d+1] = ss
		b.ls[loff+d+2] = 1
	}
	b.n[i] = 1
	b.setNorm(i)
}

// AppendPoint adds a singleton-CF slot for p at the end of the block,
// the SetPoint counterpart of Append. Within the block's pre-sized
// capacity it performs no heap allocation.
//
//birchlint:hotpath
func (b *Block) AppendPoint(p vec.Vector) {
	b.appendSlot()
	b.SetPoint(len(b.n)-1, p)
}

// setNorm refreshes slot i's centroid-norm word from the x0 slab row:
// the squares of the stored centroid components accumulated in component
// order, then the square root — exactly the candidate-side operations
// kernelCos performs (its dot accumulator is independent, so omitting it
// here changes no bits). The slab row IS the kernel's operand stream, so
// slab-derived and kernel-derived norms cannot disagree.
//
//birchlint:hotpath
func (b *Block) setNorm(i int) {
	d := b.dim
	xoff := i * (d + 1)
	row := b.x0[xoff : xoff+d : xoff+d]
	var s float64
	for _, v := range row {
		s += v * v
	}
	b.cn[i] = math.Sqrt(s)
}

// appendSlot grows every active slab by one zeroed slot.
//
//birchlint:hotpath
func (b *Block) appendSlot() {
	b.n = append(b.n, 0)
	b.x0 = appendZeros(b.x0, b.dim+1)
	b.cn = appendZeros(b.cn, 1)
	if b.kind == CoreBETULA {
		b.sb = appendZeros(b.sb, 2)
	} else {
		b.ls = appendZeros(b.ls, b.dim+3)
	}
}

// appendZeros extends s by k zeroed elements. Within capacity (the
// common case — NewBlock pre-sizes the slabs for a node's fan-out) this
// is a reslice plus an explicit clear, never a temporary allocation:
// Set overwrites the slot immediately, but the zeroing keeps a partially
// grown slab well-defined if Set panics on a bad CF.
//
//birchlint:coldpath
func appendZeros(s []float64, k int) []float64 {
	n := len(s)
	if cap(s)-n >= k {
		s = s[:n+k]
		clear(s[n:])
		return s
	}
	return append(s, make([]float64, k)...)
}

// Remove deletes slot i, shifting later slots down — the counterpart of
// deleting entry i from a node's entry slice.
func (b *Block) Remove(i int) {
	xs := b.x0Stride()
	copy(b.x0[i*xs:], b.x0[(i+1)*xs:])
	b.x0 = b.x0[:len(b.x0)-xs]
	copy(b.cn[i:], b.cn[i+1:])
	b.cn = b.cn[:len(b.cn)-1]
	if b.kind == CoreBETULA {
		copy(b.sb[i*2:], b.sb[(i+1)*2:])
		b.sb = b.sb[:len(b.sb)-2]
	} else {
		ls := b.lsStride()
		copy(b.ls[i*ls:], b.ls[(i+1)*ls:])
		b.ls = b.ls[:len(b.ls)-ls]
	}
	b.n = append(b.n[:i], b.n[i+1:]...)
}

// Truncate drops the block to its first k slots, retaining capacity.
//
//birchlint:hotpath
func (b *Block) Truncate(k int) {
	b.n = b.n[:k]
	b.x0 = b.x0[:k*b.x0Stride()]
	b.cn = b.cn[:k]
	if b.kind == CoreBETULA {
		b.sb = b.sb[:k*2]
	} else {
		b.ls = b.ls[:k*b.lsStride()]
	}
}

// AppendCFs decodes every slot into a freshly allocated CF appended to
// dst. The raw components are stored verbatim in the slabs — (N, LS, SS)
// in the classic ls slab, (N, μ, S) across the betula x0 and sb slabs —
// so the decoded CFs are bit-identical to the entries the block
// summarizes, and the copy source is contiguous arrays rather than a
// pointer chase per entry, which is why snapshot builders prefer this
// over walking entries.
func (b *Block) AppendCFs(dst []CF) []CF {
	d := b.dim
	if b.kind == CoreBETULA {
		stride := b.x0Stride()
		for i, n := range b.n {
			off := i * stride
			mu := make([]float64, d)
			copy(mu, b.x0[off:off+d])
			dst = append(dst, CF{kind: CoreBETULA, N: n, LS: mu, SS: b.sb[2*i+1]})
		}
		return dst
	}
	stride := b.lsStride()
	for i, n := range b.n {
		off := i * stride
		ls := make([]float64, d)
		copy(ls, b.ls[off:off+d])
		dst = append(dst, CF{N: n, LS: ls, SS: b.ls[off+d+1]})
	}
	return dst
}

// CheckSync verifies that slot i is bit-identical to recomputation from c
// — the maintenance invariant every block-mutating code path must
// preserve. Comparisons use Float64bits so even sign-of-zero drift is
// caught.
func (b *Block) CheckSync(i int, c *CF) error {
	if i < 0 || i >= len(b.n) {
		return fmt.Errorf("cf: block slot %d out of range (len %d)", i, len(b.n))
	}
	if c.N <= 0 {
		return fmt.Errorf("cf: block slot %d backed by empty CF", i)
	}
	if len(c.LS) != b.dim {
		return fmt.Errorf("cf: block dim %d, entry dim %d", b.dim, len(c.LS))
	}
	if c.kind != b.kind {
		return fmt.Errorf("cf: block core %v, entry core %v", b.kind, c.kind)
	}
	if b.n[i] != c.N {
		return fmt.Errorf("cf: block slot %d N=%d, entry N=%d", i, b.n[i], c.N)
	}
	n := float64(c.N)
	d := b.dim
	xoff := i * b.x0Stride()
	if b.kind == CoreBETULA {
		for j, v := range c.LS {
			if math.Float64bits(b.x0[xoff+j]) != math.Float64bits(v) {
				return fmt.Errorf("cf: block slot %d x0[%d]=%g, want %g", i, j, b.x0[xoff+j], v)
			}
		}
		if math.Float64bits(b.x0[xoff+d]) != math.Float64bits(n) {
			return fmt.Errorf("cf: block slot %d x0-slab N=%g, want %g", i, b.x0[xoff+d], n)
		}
		if math.Float64bits(b.sb[2*i]) != math.Float64bits(c.SS/n) {
			return fmt.Errorf("cf: block slot %d S/N=%g, want %g", i, b.sb[2*i], c.SS/n)
		}
		if math.Float64bits(b.sb[2*i+1]) != math.Float64bits(c.SS) {
			return fmt.Errorf("cf: block slot %d S=%g, want %g", i, b.sb[2*i+1], c.SS)
		}
	} else {
		loff := i * b.lsStride()
		for j, v := range c.LS {
			if math.Float64bits(b.x0[xoff+j]) != math.Float64bits(v/n) {
				return fmt.Errorf("cf: block slot %d x0[%d]=%g, want %g", i, j, b.x0[xoff+j], v/n)
			}
			if math.Float64bits(b.ls[loff+j]) != math.Float64bits(v) {
				return fmt.Errorf("cf: block slot %d ls[%d]=%g, want %g", i, j, b.ls[loff+j], v)
			}
		}
		if math.Float64bits(b.x0[xoff+d]) != math.Float64bits(n) {
			return fmt.Errorf("cf: block slot %d x0-slab N=%g, want %g", i, b.x0[xoff+d], n)
		}
		if math.Float64bits(b.ls[loff+d]) != math.Float64bits(c.SS/n) {
			return fmt.Errorf("cf: block slot %d SS/N=%g, want %g", i, b.ls[loff+d], c.SS/n)
		}
		if math.Float64bits(b.ls[loff+d+1]) != math.Float64bits(c.SS) {
			return fmt.Errorf("cf: block slot %d SS=%g, want %g", i, b.ls[loff+d+1], c.SS)
		}
		if math.Float64bits(b.ls[loff+d+2]) != math.Float64bits(n) {
			return fmt.Errorf("cf: block slot %d ls-slab N=%g, want %g", i, b.ls[loff+d+2], n)
		}
	}
	var cnsq float64
	for j := 0; j < d; j++ {
		v := b.x0[xoff+j]
		cnsq += v * v
	}
	if math.Float64bits(b.cn[i]) != math.Float64bits(math.Sqrt(cnsq)) {
		return fmt.Errorf("cf: block slot %d centroid norm=%g, want %g", i, b.cn[i], math.Sqrt(cnsq))
	}
	return nil
}
