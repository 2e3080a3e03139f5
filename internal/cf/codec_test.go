package cf

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b carry the same kind and bit-identical
// storage slots.
func sameBits(a, b *CF) bool {
	if a.kind != b.kind || a.N != b.N || math.Float64bits(a.SS) != math.Float64bits(b.SS) || len(a.LS) != len(b.LS) {
		return false
	}
	for i := range a.LS {
		if math.Float64bits(a.LS[i]) != math.Float64bits(b.LS[i]) {
			return false
		}
	}
	return true
}

// TestRowRoundTrip: a row written by AppendRow or Writer.Row decodes
// bit-identically through DecodeRows and Reader.Row, under either core.
func TestRowRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, kind := range []CoreKind{CoreClassic, CoreBETULA} {
		for _, dim := range []int{1, 2, 7} {
			cfs := []CF{
				NewCore(dim, kind),
				cfOfPoints(randOffsetPoints(r, dim, 1, 10), kind),
				cfOfPoints(randOffsetPoints(r, dim, 9, 1e8), kind),
			}
			var flat []byte
			var stream bytes.Buffer
			w := NewWriter(&stream)
			for i := range cfs {
				flat = AppendRow(flat, &cfs[i])
				w.Row(&cfs[i])
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(flat, stream.Bytes()) || len(flat) != len(cfs)*rowSize(dim) {
				t.Fatalf("%v d=%d: AppendRow and Writer.Row disagree", kind, dim)
			}
			got, rest, err := DecodeRows(flat, kind, dim, len(cfs))
			if err != nil || len(rest) != 0 {
				t.Fatalf("%v d=%d: DecodeRows: %v, %d bytes left", kind, dim, err, len(rest))
			}
			d := NewReader(&stream)
			for i := range cfs {
				c, err := d.Row(kind, dim)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(&c, &cfs[i]) || !sameBits(&got[i], &cfs[i]) {
					t.Fatalf("%v d=%d: row %d changed in the round trip", kind, dim, i)
				}
			}
		}
	}
}

// TestDecodeRowsBounds: counts the bytes cannot hold are ErrTruncated,
// checked before allocation; invalid rows and kinds are other errors.
func TestDecodeRowsBounds(t *testing.T) {
	one := AppendRow(nil, &CF{N: 1, LS: []float64{3, 4}, SS: 25})
	for _, tc := range []struct {
		name       string
		b          []byte
		dim, count int
	}{
		{"count past the bytes", one, 2, 2},
		{"huge count", one, 2, math.MaxInt32},
		{"huge dimension", one, math.MaxUint32, 1},
		{"huge count and dimension", one, math.MaxUint32, math.MaxUint32},
	} {
		if _, _, err := DecodeRows(tc.b, CoreClassic, tc.dim, tc.count); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", tc.name, err)
		}
	}
	if got, rest, err := DecodeRows(one, CoreClassic, 2, 0); err != nil || got != nil || len(rest) != len(one) {
		t.Errorf("zero rows: %v %v %d", got, err, len(rest))
	}
	bad := AppendRow(nil, &CF{N: 1, LS: []float64{3, 4}, SS: 1}) // SS < ‖LS‖²/N
	for _, tc := range []struct {
		name string
		b    []byte
		kind CoreKind
	}{
		{"Cauchy-Schwarz violation", bad, CoreClassic},
		{"negative N", AppendRow(nil, &CF{N: -1, LS: []float64{0, 0}}), CoreBETULA},
		{"unknown core", one, CoreKind(9)},
	} {
		_, _, err := DecodeRows(tc.b, tc.kind, 2, 1)
		if err == nil || errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want a validation error", tc.name, err)
		}
	}
}

// TestSections: each Seal'd section carries its own CRC, a flipped byte
// fails its section's Check, a short stream reads as zeros with a sticky
// ErrTruncated, and NewWriter/NewReader hand back an existing instance.
func TestSections(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if NewWriter(w) != w {
		t.Fatal("NewWriter wrapped a Writer")
	}
	w.Bytes([]byte("SECTION1"))
	w.U32(7)
	w.Seal()
	w.I64(-3)
	w.F64(math.Pi)
	w.U8(9)
	w.Seal()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	type fields struct {
		u32 uint32
		i   int64
		f   float64
		u8  uint8
	}
	read := func(b []byte) (*Reader, fields, error, error) {
		d := NewReader(bytes.NewReader(b))
		if NewReader(d) != d {
			t.Fatal("NewReader wrapped a Reader")
		}
		var magic [8]byte
		var v fields
		d.Bytes(magic[:])
		v.u32 = d.U32()
		err1 := d.Check()
		v.i, v.f, v.u8 = d.I64(), d.F64(), d.U8()
		return d, v, err1, d.Check()
	}
	if _, v, err1, err2 := read(img); err1 != nil || err2 != nil || v != (fields{7, -3, math.Pi, 9}) {
		t.Fatalf("pristine sections: %+v, %v, %v", v, err1, err2)
	}
	for off := range img {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x20
		if _, _, _, err2 := read(bad); err2 == nil {
			t.Fatalf("flip at %d passed both checks", off)
		}
	}
	d, _, _, err := read(img[:len(img)-1])
	if !errors.Is(err, ErrTruncated) || d.U64() != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("truncated stream: %v", err)
	}
}
