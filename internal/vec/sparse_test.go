package vec

import (
	"math"
	"math/rand"
	"testing"
)

// randSparseVec draws a Sparse with nnz distinct sorted indices.
func randSparseVec(r *rand.Rand, dim, nnz int) Sparse {
	perm := r.Perm(dim)
	idx := make([]int32, nnz)
	for t, j := range perm[:nnz] {
		idx[t] = int32(j)
	}
	for a := 1; a < len(idx); a++ {
		for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	val := make([]float64, nnz)
	for t := range val {
		val[t] = (r.Float64()*2 - 1) * 100
	}
	return Sparse{D: dim, Idx: idx, Val: val}
}

// TestSparseValidate pins the structural gate: every malformed shape the
// wire decoder and public API rely on Validate to reject.
func TestSparseValidate(t *testing.T) {
	good := Sparse{D: 4, Idx: []int32{0, 2}, Val: []float64{1, -2}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid sparse rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Sparse
	}{
		{"zero dim", Sparse{D: 0}},
		{"negative dim", Sparse{D: -1}},
		{"length mismatch", Sparse{D: 4, Idx: []int32{0}, Val: []float64{1, 2}}},
		{"unsorted", Sparse{D: 4, Idx: []int32{2, 1}, Val: []float64{1, 2}}},
		{"duplicate", Sparse{D: 4, Idx: []int32{1, 1}, Val: []float64{1, 2}}},
		{"negative index", Sparse{D: 4, Idx: []int32{-1, 2}, Val: []float64{1, 2}}},
		{"out of range", Sparse{D: 4, Idx: []int32{0, 4}, Val: []float64{1, 2}}},
		{"nan value", Sparse{D: 4, Idx: []int32{1}, Val: []float64{math.NaN()}}},
		{"inf value", Sparse{D: 4, Idx: []int32{1}, Val: []float64{math.Inf(1)}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %v", c.name, c.s)
		}
	}
	if _, err := NewSparse(4, []int32{3, 1}, []float64{1, 2}); err == nil {
		t.Fatal("NewSparse accepted unsorted indices")
	}
}

// TestSparseDenseRoundTrip: FromDense and Dense invert each other, and
// the accessors agree with the dense view.
func TestSparseDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for _, dim := range []int{1, 3, 17, 128} {
		for _, nnz := range []int{0, 1, dim / 2, dim} {
			s := randSparseVec(r, dim, nnz)
			d := s.Dense()
			back := FromDense(d)
			if err := back.Validate(); err != nil {
				t.Fatalf("FromDense produced invalid sparse: %v", err)
			}
			for j := range d {
				if math.Float64bits(back.Dense()[j]) != math.Float64bits(d[j]) {
					t.Fatalf("dim=%d nnz=%d: roundtrip differs at %d", dim, nnz, j)
				}
			}
			if s.Dim() != dim || s.NNZ() != nnz {
				t.Fatalf("dim=%d nnz=%d: accessors report (%d, %d)", dim, nnz, s.Dim(), s.NNZ())
			}
			if want := float64(nnz) / float64(dim); s.Density() != want { //birchlint:ignore floateq exact by construction
				t.Fatalf("Density() = %v, want %v", s.Density(), want)
			}
		}
	}
}

// TestSparseReductionsBitIdentical is the vec half of the gather
// bit-identity contract: SqNorm and DotDense match the equivalent dense
// reductions Float64bits-for-Float64bits at every density.
func TestSparseReductionsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	for _, dim := range []int{1, 2, 9, 64, 301} {
		for nnz := 1; nnz <= dim; nnz = nnz*3 + 1 {
			for trial := 0; trial < 20; trial++ {
				s := randSparseVec(r, dim, nnz)
				d := s.Dense()
				if math.Float64bits(s.SqNorm()) != math.Float64bits(d.SqNorm()) {
					t.Fatalf("dim=%d nnz=%d: SqNorm differs", dim, nnz)
				}
				w := New(dim)
				for j := range w {
					w[j] = (r.Float64()*2 - 1) * 50
				}
				if math.Float64bits(s.DotDense(w)) != math.Float64bits(Dot(w, d)) {
					t.Fatalf("dim=%d nnz=%d: DotDense differs from dense Dot", dim, nnz)
				}
			}
		}
	}
}

// TestSparseScatterZeroProtocol: ScatterInto + ZeroInto restores the
// all-zero invariant of a reusable scratch buffer.
func TestSparseScatterZeroProtocol(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	scratch := New(32)
	for trial := 0; trial < 50; trial++ {
		s := randSparseVec(r, 32, 1+r.Intn(32))
		s.ScatterInto(scratch)
		for t2, ix := range s.Idx {
			if math.Float64bits(scratch[ix]) != math.Float64bits(s.Val[t2]) {
				t.Fatal("ScatterInto missed an entry")
			}
		}
		s.ZeroInto(scratch)
		for j, x := range scratch {
			if x != 0 { //birchlint:ignore floateq exact zero invariant of the scratch protocol
				t.Fatalf("trial %d: scratch[%d] = %v after ZeroInto", trial, j, x)
			}
		}
	}
}

// TestSparseClone: clones are deep — mutating one side never shows
// through the other.
func TestSparseClone(t *testing.T) {
	s := Sparse{D: 5, Idx: []int32{1, 3}, Val: []float64{2, 4}}
	c := s.Clone()
	c.Idx[0], c.Val[0] = 2, 9
	if s.Idx[0] != 1 || s.Val[0] != 2 { //birchlint:ignore floateq exact stored values
		t.Fatal("Clone aliased the original's backing arrays")
	}
}

// TestSparseDimMismatchPanics pins the dimension guards on the
// scatter/gather entry points.
func TestSparseDimMismatchPanics(t *testing.T) {
	s := Sparse{D: 3, Idx: []int32{0}, Val: []float64{1}}
	wrong := New(4)
	for name, f := range map[string]func(){
		"DenseInto":   func() { s.DenseInto(wrong) },
		"ScatterInto": func() { s.ScatterInto(wrong) },
		"ZeroInto":    func() { s.ZeroInto(wrong) },
		"DotDense":    func() { s.DotDense(wrong) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a mismatched vector", name)
				}
			}()
			f()
		}()
	}
}

// TestDenseBatch: every row equals its point's Dense, rows of one batch
// do not overlap (appending to one row cannot write into the next), and
// an empty batch gives an empty result.
func TestDenseBatch(t *testing.T) {
	pts := []Sparse{
		{D: 4, Idx: []int32{0, 3}, Val: []float64{1.5, -2}},
		{D: 4},
		{D: 4, Idx: []int32{1, 2, 3}, Val: []float64{7, 8, 9}},
	}
	rows := DenseBatch(pts)
	if len(rows) != len(pts) {
		t.Fatalf("%d rows for %d points", len(rows), len(pts))
	}
	for i, sp := range pts {
		if !Equal(rows[i], sp.Dense()) || cap(rows[i]) != sp.D {
			t.Fatalf("row %d = %v (cap %d), want %v (cap %d)", i, rows[i], cap(rows[i]), sp.Dense(), sp.D)
		}
	}
	_ = append(rows[0], 42)
	if !Equal(rows[1], pts[1].Dense()) {
		t.Fatalf("append to row 0 wrote into row 1: %v", rows[1])
	}
	if got := DenseBatch(nil); len(got) != 0 {
		t.Fatalf("DenseBatch(nil) = %v", got)
	}
}
