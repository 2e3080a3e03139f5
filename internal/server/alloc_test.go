package server

// Dynamic allocation gates for the wire codec's batch hot paths. These
// are the AllocsPerRun halves of the //birchlint:hotpath annotations on
// (see TestHotPathAnnotationCoverage in internal/lint):
//
//	server.AppendPointsFrame, server.AppendClassifyResultFrame,
//	server.DecodeFrame, server.DecodePointsInto,
//	server.DecodeClassifyResultInto
//
// plus their emit primitives appendU32/appendU64/beginFrame/finishFrame,
// which the hotpath pass covers through the call graph. Against warm
// reused buffers — the steady state of a serving batch loop, where the
// server's request scratch and the Client's pools hand them their
// buffers — every one of them must run allocation-free. Handed a nil or
// short buffer, as a fresh pooled buffer is, an encoder must allocate
// exactly once: it sizes the frame before writing it. The whole request
// path's budget, net/http included, is TestServeRequestAllocBudget's.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"birch/internal/vec"
)

func TestWireEncodeAllocs(t *testing.T) {
	pts := testPoints(64, 8)
	buf, err := AppendPointsFrame(nil, pts, 8) // warm the buffer
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendPointsFrame(buf[:0], pts, 8)
		if err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("AppendPointsFrame: %v allocs/run against a warm buffer, want 0", got)
	}

	idx := make([]int, 64)
	dist := make([]float64, 64)
	res := AppendClassifyResultFrame(nil, idx, dist)
	if got := testing.AllocsPerRun(200, func() {
		res = AppendClassifyResultFrame(res[:0], idx, dist)
	}); got != 0 {
		t.Fatalf("AppendClassifyResultFrame: %v allocs/run against a warm buffer, want 0", got)
	}

	// A nil buffer: one allocation for the whole frame.
	if got := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendPointsFrame(nil, pts, 8)
		if err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("AppendPointsFrame: %v allocs/run from a nil buffer, want 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		res = AppendClassifyResultFrame(nil, idx, dist)
	}); got != 1 {
		t.Fatalf("AppendClassifyResultFrame: %v allocs/run from a nil buffer, want 1", got)
	}
	sps := testSparsePoints(64, 256, 13)
	if got := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendSparsePointsFrame(nil, sps, 256)
		if err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("AppendSparsePointsFrame: %v allocs/run from a nil buffer, want 1", got)
	}
}

// growingAppendPointsFrame and growingAppendClassifyResultFrame are the
// encoders as they were before they sized their frames up front: the
// same header, payload and CRC, grown one append at a time.
func growingAppendPointsFrame(dst []byte, pts []vec.Vector, dim int) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst[start+8] = MsgPoints
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pts)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, p := range pts {
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return growingFinish(dst, start)
}

func growingAppendClassifyResultFrame(dst []byte, idx []int, dist []float64) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst[start+8] = MsgClassifyResult
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for i := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(idx[i]))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(dist[i]))
	}
	return growingFinish(dst, start)
}

func growingFinish(dst []byte, start int) []byte {
	body := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return dst
}

// TestSizedEncodersMatchGrowingEncoders pins that sizing the frame up
// front changed no byte: for dims {1, 8, 16} × batches {0, 1, 64}, from
// a nil buffer and after existing bytes, both encoders write exactly
// what the grow-as-you-go encoders write.
func TestSizedEncodersMatchGrowingEncoders(t *testing.T) {
	for _, dim := range []int{1, 8, 16} {
		for _, n := range []int{0, 1, 64} {
			pts := testPoints(n, dim)
			idx := make([]int, n)
			dist := make([]float64, n)
			for i := range idx {
				idx[i] = i * 7 % 33
				dist[i] = math.Sqrt(float64(i) + 0.5)
			}
			for _, prefix := range [][]byte{nil, []byte("prior frame bytes")} {
				name := fmt.Sprintf("dim=%d n=%d prefix=%d", dim, n, len(prefix))
				got, err := AppendPointsFrame(bytes.Clone(prefix), pts, dim)
				if err != nil {
					t.Fatal(err)
				}
				if want := growingAppendPointsFrame(bytes.Clone(prefix), pts, dim); !bytes.Equal(got, want) {
					t.Fatalf("%s: points frame differs:\n got %x\nwant %x", name, got, want)
				}
				gotRes := AppendClassifyResultFrame(bytes.Clone(prefix), idx, dist)
				if want := growingAppendClassifyResultFrame(bytes.Clone(prefix), idx, dist); !bytes.Equal(gotRes, want) {
					t.Fatalf("%s: classify result frame differs:\n got %x\nwant %x", name, gotRes, want)
				}
			}
		}
	}
}

func TestWireDecodeAllocs(t *testing.T) {
	pts := testPoints(64, 8)
	frame, err := AppendPointsFrame(nil, pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the reused decode buffers once.
	_, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	backing, decoded, err := DecodePointsInto(payload, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		_, payload, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		backing, decoded, err = DecodePointsInto(payload, 8, backing, decoded)
		if err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("DecodeFrame+DecodePointsInto: %v allocs/run against warm buffers, want 0", got)
	}

	idx := make([]int, 64)
	dist := make([]float64, 64)
	resFrame := AppendClassifyResultFrame(nil, idx, dist)
	_, resPayload, err := DecodeFrame(resFrame)
	if err != nil {
		t.Fatal(err)
	}
	gi, gd, err := DecodeClassifyResultInto(resPayload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		var err error
		gi, gd, err = DecodeClassifyResultInto(resPayload, gi, gd)
		if err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("DecodeClassifyResultInto: %v allocs/run against warm buffers, want 0", got)
	}
}
