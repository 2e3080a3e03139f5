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
// There are four slab families, each packed so a scan is a single
// contiguous stream with no side lookups:
//
//	x0 slab, stride dim+1 per entry:
//	    x0[0..dim)  — the centroid: LS[j]/N under the classic core (the
//	                  candidate-side division D0, D1 and D4 perform per
//	                  component), the stored mean μ under BETULA
//	    float64(N)  — the conversion D4 performs, hoisted
//	ls slab, stride dim+3 per entry (classic core only):
//	    ls[0..dim)  — the raw linear sum (D2's dot product, D3's merged sum)
//	    SS/N        — the candidate's constant term in D2
//	    SS          — the raw square sum (D3's merged square sum)
//	    float64(N)  — the conversion D2 performs, hoisted
//	sb slab, stride 2 per entry (BETULA only):
//	    S/N, S      — the deviation-sum terms of the betula D2/D3 forms
//	cn slab, stride 1 per entry:
//	    ‖x0ᵢ‖       — the centroid norm DCos reads (setNorm)
//
// A block maintains only the families its (metric, core) pair reads, a
// set SlabsFor decides: the ones the pair's fused scan streams plus the
// ones AppendCFs decodes entries from (ls under classic, x0 and sb under
// BETULA). So a classic D2 or D3 tree writes the ls slab alone — no
// per-component division, no norm — and only DCos blocks carry cn. A
// flat centroid block (NewCentroidBlock) holds the x0 slab alone, all
// ScanNearestX0 reads. Splitting by family matters twice: an interleaved
// everything-per-entry layout would drag the unused family's bytes
// through the cache on every scan, and a family no scan reads would
// still cost its derivation on every absorb.
//
// The hoisted values are computed by exactly the floating-point
// operations the kernels would perform (v/float64(N), SS/float64(N),
// float64(N), and for cn the accumulate-squares-then-sqrt of the
// cosine kernel's candidate side) on the same operands, so consuming a
// slot is bit-identical to recomputing from the entry's CF — the
// exactness contract CheckSync enforces and the cftree fuzzer drives.
//
// A Block is maintained incrementally: owners refresh the one slot whose
// entry changed (Set after a merge, Append for a new entry) and never
// rebuild the slab wholesale on the hot path. Set writes in place and the
// backing arrays are pre-sized at construction, so slot maintenance on the
// absorb path performs zero heap allocations.
type Block struct {
	dim   int
	kind  CoreKind
	slabs Slabs // the families this block maintains; the others stay nil
	n     []int64
	x0    []float64 // dim+1 floats per entry: centroid, float64(N)
	ls    []float64 // classic: dim+3 floats per entry: raw LS, SS/N, SS, float64(N)
	sb    []float64 // betula: 2 floats per entry: S/N, S
	cn    []float64 // 1 float per entry: centroid norm ‖x0‖ (DCos candidate term)
}

// Slabs is a set of Block slab families.
type Slabs uint8

// The slab families (see Block).
const (
	SlabX0 Slabs = 1 << iota // centroid rows and float64(N)
	SlabLS                   // classic raw LS rows and SS/N, SS, float64(N)
	SlabSB                   // betula S/N and S
	SlabCN                   // centroid norms
)

// SlabsFor is the one function that decides which slab families a
// CF-tree block maintains under metric m and backend kind: the families
// the pair's fused scan reads (scanFor, which ScanKernelForCore also
// answers from; the sparse gather scans read the same ones) plus the
// ones AppendCFs decodes entries from — ls under the classic core, x0
// and sb under BETULA, whose x0 slab holds the means every betula scan
// reads. NewBlockOpts sizes a block by it and CheckSync checks a block
// against it. It panics on an invalid metric.
func SlabsFor(m Metric, kind CoreKind) Slabs {
	_, reads := scanFor(m, kind)
	if kind == CoreBETULA {
		return reads | SlabX0 | SlabSB
	}
	return reads | SlabLS
}

// Slab strides per entry.
func (b *Block) x0Stride() int { return b.dim + 1 }
func (b *Block) lsStride() int { return b.dim + 3 }

// NewBlockOpts returns an empty Block for the entries of a CF tree of
// dimension dim that descends under metric m with the given CF-core
// backend, maintaining the slab families SlabsFor(m, kind) names and
// pre-sized so the first capEntries appends do not reallocate.
func NewBlockOpts(dim, capEntries int, m Metric, kind CoreKind) *Block {
	if !kind.Valid() {
		panic("cf: NewBlock with invalid core kind")
	}
	return newBlock(dim, capEntries, kind, SlabsFor(m, kind))
}

// NewCentroidBlock returns an empty flat centroid block: the x0 slab
// alone, packed one point per slot through AppendPoint/SetPoint, which
// is everything ScanNearestX0 reads. Pre-sized so the first capEntries
// appends do not reallocate.
func NewCentroidBlock(dim, capEntries int) *Block {
	return newBlock(dim, capEntries, CoreClassic, SlabX0)
}

func newBlock(dim, capEntries int, kind CoreKind, slabs Slabs) *Block {
	if dim <= 0 {
		panic("cf: NewBlock with non-positive dimension")
	}
	b := &Block{dim: dim, kind: kind, slabs: slabs, n: make([]int64, 0, capEntries)}
	if slabs&SlabX0 != 0 {
		b.x0 = make([]float64, 0, capEntries*(dim+1))
	}
	if slabs&SlabLS != 0 {
		b.ls = make([]float64, 0, capEntries*(dim+3))
	}
	if slabs&SlabSB != 0 {
		b.sb = make([]float64, 0, capEntries*2)
	}
	if slabs&SlabCN != 0 {
		b.cn = make([]float64, 0, capEntries)
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

// Slabs returns the slab families the block maintains.
func (b *Block) Slabs() Slabs { return b.slabs }

// Centroid returns slot i's centroid row of the x0 slab, aliased, not
// copied. The block must maintain the x0 slab.
//
//birchlint:hotpath
func (b *Block) Centroid(i int) []float64 {
	off := i * (b.dim + 1)
	return b.x0[off : off+b.dim : off+b.dim]
}

// Set recomputes slot i from c. c must be non-empty, of the block's
// dimension and backend kind; this is the only place slot values are
// derived from a CF, so every maintained slab always carries exactly the
// bits a kernel would recompute.
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
	if b.slabs&SlabX0 != 0 {
		xoff := i * (d + 1)
		x0 := b.x0[xoff : xoff+d : xoff+d]
		if b.kind == CoreBETULA {
			copy(x0, c.LS)
		} else {
			for j, v := range c.LS {
				x0[j] = v / n
			}
		}
		b.x0[xoff+d] = n
	}
	if b.slabs&SlabLS != 0 {
		loff := i * (d + 3)
		copy(b.ls[loff:loff+d:loff+d], c.LS)
		b.ls[loff+d] = c.SS / n
		b.ls[loff+d+1] = c.SS
		b.ls[loff+d+2] = n
	}
	if b.slabs&SlabSB != 0 {
		b.sb[2*i] = c.SS / n
		b.sb[2*i+1] = c.SS
	}
	b.n[i] = c.N
	if b.slabs&SlabCN != 0 {
		b.setNorm(i)
	}
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
// backend. Flat centroid blocks — the packing behind the
// nearest-centroid search of Phase 4 assignment, Lloyd iteration and
// Classify — use this to re-pack moving centroids in place with zero
// allocations.
//
//birchlint:hotpath
func (b *Block) SetPoint(i int, p vec.Vector) {
	if len(p) != b.dim {
		panic("cf: Block.SetPoint dimension mismatch")
	}
	d := b.dim
	if b.slabs&SlabX0 != 0 {
		xoff := i * (d + 1)
		copy(b.x0[xoff:xoff+d:xoff+d], p)
		b.x0[xoff+d] = 1
	}
	if b.slabs&SlabLS != 0 {
		loff := i * (d + 3)
		ss := p.SqNorm()
		copy(b.ls[loff:loff+d:loff+d], p)
		b.ls[loff+d] = ss // SS/N with N = 1
		b.ls[loff+d+1] = ss
		b.ls[loff+d+2] = 1
	}
	if b.slabs&SlabSB != 0 {
		b.sb[2*i] = 0
		b.sb[2*i+1] = 0
	}
	b.n[i] = 1
	if b.slabs&SlabCN != 0 {
		b.setNorm(i)
	}
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
// slab-derived and kernel-derived norms cannot disagree. Only blocks
// that maintain cn call it, and SlabsFor gives every such block the x0
// slab too.
//
//birchlint:hotpath
func (b *Block) setNorm(i int) {
	b.cn[i] = b.rowNorm(i)
}

// rowNorm is ‖x0ᵢ‖ by setNorm's operations.
//
//birchlint:hotpath
func (b *Block) rowNorm(i int) float64 {
	d := b.dim
	xoff := i * (d + 1)
	row := b.x0[xoff : xoff+d : xoff+d]
	var s float64
	for _, v := range row {
		s += v * v
	}
	return math.Sqrt(s)
}

// appendSlot grows every maintained slab by one zeroed slot.
//
//birchlint:hotpath
func (b *Block) appendSlot() {
	b.n = append(b.n, 0)
	if b.slabs&SlabX0 != 0 {
		b.x0 = appendZeros(b.x0, b.dim+1)
	}
	if b.slabs&SlabLS != 0 {
		b.ls = appendZeros(b.ls, b.dim+3)
	}
	if b.slabs&SlabSB != 0 {
		b.sb = appendZeros(b.sb, 2)
	}
	if b.slabs&SlabCN != 0 {
		b.cn = appendZeros(b.cn, 1)
	}
}

// appendZeros extends s by k zeroed elements. Within capacity (the
// common case — NewBlockOpts pre-sizes the slabs for a node's fan-out)
// this is a reslice plus an explicit clear, never a temporary
// allocation: Set overwrites the slot immediately, but the zeroing keeps
// a partially grown slab well-defined if Set panics on a bad CF.
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

// removeRow deletes the stride-wide row i of s, shifting later rows down.
func removeRow(s []float64, i, stride int) []float64 {
	copy(s[i*stride:], s[(i+1)*stride:])
	return s[:len(s)-stride]
}

// Remove deletes slot i, shifting later slots down — the counterpart of
// deleting entry i from a node's entry slice.
func (b *Block) Remove(i int) {
	if b.slabs&SlabX0 != 0 {
		b.x0 = removeRow(b.x0, i, b.x0Stride())
	}
	if b.slabs&SlabLS != 0 {
		b.ls = removeRow(b.ls, i, b.lsStride())
	}
	if b.slabs&SlabSB != 0 {
		b.sb = removeRow(b.sb, i, 2)
	}
	if b.slabs&SlabCN != 0 {
		b.cn = removeRow(b.cn, i, 1)
	}
	b.n = append(b.n[:i], b.n[i+1:]...)
}

// Truncate drops the block to its first k slots, retaining capacity.
// Absent slabs are nil and stay nil (reslicing nil to zero is nil).
//
//birchlint:hotpath
func (b *Block) Truncate(k int) {
	b.n = b.n[:k]
	if b.slabs&SlabX0 != 0 {
		b.x0 = b.x0[:k*b.x0Stride()]
	}
	if b.slabs&SlabLS != 0 {
		b.ls = b.ls[:k*b.lsStride()]
	}
	if b.slabs&SlabSB != 0 {
		b.sb = b.sb[:k*2]
	}
	if b.slabs&SlabCN != 0 {
		b.cn = b.cn[:k]
	}
}

// AppendCFs decodes every slot into a freshly allocated CF appended to
// dst. The raw components are stored verbatim in the slabs — (N, LS, SS)
// in the classic ls slab, (N, μ, S) across the betula x0 and sb slabs —
// so the decoded CFs are bit-identical to the entries the block
// summarizes, and the copy source is contiguous arrays rather than a
// pointer chase per entry, which is why snapshot builders prefer this
// over walking entries. Every CF-tree block maintains these slabs
// (SlabsFor); a flat centroid block does not and panics here.
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
	if b.slabs&SlabLS == 0 {
		panic("cf: AppendCFs on a block without the ls slab")
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
// in every slab family the block maintains, and that the families it
// does not maintain hold nothing — the maintenance invariant every
// block-mutating code path must preserve. Comparisons use Float64bits so
// even sign-of-zero drift is caught.
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
	for _, s := range []struct {
		name  string
		slab  Slabs
		words []float64
	}{{"x0", SlabX0, b.x0}, {"ls", SlabLS, b.ls}, {"sb", SlabSB, b.sb}, {"cn", SlabCN, b.cn}} {
		if b.slabs&s.slab == 0 && len(s.words) != 0 {
			return fmt.Errorf("cf: block holds %d %s words outside its slab set", len(s.words), s.name)
		}
	}
	n := float64(c.N)
	d := b.dim
	if b.slabs&SlabX0 != 0 {
		xoff := i * b.x0Stride()
		for j, v := range c.LS {
			want := v / n
			if b.kind == CoreBETULA {
				want = v
			}
			if err := slotBits(i, "x0", j, b.x0[xoff+j], want); err != nil {
				return err
			}
		}
		if err := slotBits(i, "x0-slab N", -1, b.x0[xoff+d], n); err != nil {
			return err
		}
	}
	if b.slabs&SlabLS != 0 {
		loff := i * b.lsStride()
		for j, v := range c.LS {
			if err := slotBits(i, "ls", j, b.ls[loff+j], v); err != nil {
				return err
			}
		}
		for j, want := range [3]float64{c.SS / n, c.SS, n} {
			if err := slotBits(i, "ls-slab tail", j, b.ls[loff+d+j], want); err != nil {
				return err
			}
		}
	}
	if b.slabs&SlabSB != 0 {
		for j, want := range [2]float64{c.SS / n, c.SS} {
			if err := slotBits(i, "sb", j, b.sb[2*i+j], want); err != nil {
				return err
			}
		}
	}
	if b.slabs&SlabCN != 0 {
		if err := slotBits(i, "centroid norm", -1, b.cn[i], b.rowNorm(i)); err != nil {
			return err
		}
	}
	return nil
}

// slotBits reports slot i's word what[j] (j < 0: a scalar word) unless
// got and want carry the same bits.
func slotBits(i int, what string, j int, got, want float64) error {
	if math.Float64bits(got) == math.Float64bits(want) {
		return nil
	}
	if j >= 0 {
		what = fmt.Sprintf("%s[%d]", what, j)
	}
	return fmt.Errorf("cf: block slot %d %s=%g, want %g", i, what, got, want)
}
