package server

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/stream"
	"birch/internal/vec"
)

func testPoints(n, dim int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(dim)
		for d := 0; d < dim; d++ {
			// Mix of magnitudes, signs and irrationals so bit-exactness is
			// a real claim, not an integer coincidence.
			p[d] = float64(i-d)*1e8 + math.Sqrt(float64(i*7+d+2))
		}
		pts[i] = p
	}
	return pts
}

func TestPointsFrameRoundTrip(t *testing.T) {
	for _, spec := range []struct{ n, dim int }{{0, 3}, {1, 1}, {17, 4}, {64, 2}, {256, 8}} {
		pts := testPoints(spec.n, spec.dim)
		frame, err := AppendPointsFrame(nil, pts, spec.dim)
		if err != nil {
			t.Fatal(err)
		}
		typ, payload, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("n=%d dim=%d: %v", spec.n, spec.dim, err)
		}
		if typ != MsgPoints {
			t.Fatalf("type %d, want MsgPoints", typ)
		}
		_, got, err := DecodePointsInto(payload, spec.dim, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != spec.n {
			t.Fatalf("decoded %d points, want %d", len(got), spec.n)
		}
		for i := range got {
			for d := range got[i] {
				if math.Float64bits(got[i][d]) != math.Float64bits(pts[i][d]) {
					t.Fatalf("point %d dim %d: bits differ", i, d)
				}
			}
		}
	}
}

func TestClassifyResultFrameRoundTrip(t *testing.T) {
	idx := []int{0, 3, -1, 99, 7}
	dist := []float64{0, 1.5, math.Sqrt(2), 1e-300, 2.5e17}
	frame := AppendClassifyResultFrame(nil, idx, dist)
	typ, payload, err := DecodeFrame(frame)
	if err != nil || typ != MsgClassifyResult {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	gi, gd, err := DecodeClassifyResultInto(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if gi[i] != idx[i] || math.Float64bits(gd[i]) != math.Float64bits(dist[i]) {
			t.Fatalf("slot %d: got (%d,%v) want (%d,%v)", i, gi[i], gd[i], idx[i], dist[i])
		}
	}
}

func TestAckAndErrorFrames(t *testing.T) {
	frame := AppendAckFrame(nil, 123456789)
	typ, payload, err := DecodeFrame(frame)
	if err != nil || typ != MsgAck {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	if n, err := DecodeAck(payload); err != nil || n != 123456789 {
		t.Fatalf("ack %d err=%v", n, err)
	}

	frame = AppendErrorFrame(nil, "boom")
	typ, payload, err = DecodeFrame(frame)
	if err != nil || typ != MsgError {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	if string(payload) != "boom" {
		t.Fatalf("error payload %q", payload)
	}
}

// TestSummariesFrameRoundTrip is the codec half of the coordinator
// bit-equality criterion: real engine summaries — both CF cores — must
// survive the wire with every storage slot bit-identical.
func TestSummariesFrameRoundTrip(t *testing.T) {
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		cfg := core.DefaultConfig(3, 4)
		cfg.Core = kind
		cfg.Refine = false
		eng, err := stream.New(cfg, stream.Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := eng.InsertBatch(ctx, testPoints(400, 3)); err != nil {
			t.Fatal(err)
		}
		sums, err := eng.ShardSummaries(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		frame, err := AppendSummariesFrame(nil, kind, cfg.Dim, sums)
		if err != nil {
			t.Fatal(err)
		}
		typ, payload, err := DecodeFrame(frame)
		if err != nil || typ != MsgSummaries {
			t.Fatalf("core %v: typ=%d err=%v", kind, typ, err)
		}
		gotKind, gotDim, got, err := DecodeSummaries(payload)
		if err != nil {
			t.Fatal(err)
		}
		if gotKind != kind || gotDim != cfg.Dim || len(got) != len(sums) {
			t.Fatalf("core %v: got kind=%v dim=%d shards=%d", kind, gotKind, gotDim, len(got))
		}
		for s := range sums {
			if math.Float64bits(got[s].Threshold) != math.Float64bits(sums[s].Threshold) {
				t.Fatalf("core %v shard %d: threshold bits differ", kind, s)
			}
			if len(got[s].CFs) != len(sums[s].CFs) {
				t.Fatalf("core %v shard %d: %d CFs, want %d", kind, s, len(got[s].CFs), len(sums[s].CFs))
			}
			for i := range sums[s].CFs {
				a, b := &sums[s].CFs[i], &got[s].CFs[i]
				if a.Kind() != b.Kind() || a.N != b.N || math.Float64bits(a.SS) != math.Float64bits(b.SS) {
					t.Fatalf("core %v shard %d CF %d: header slots differ", kind, s, i)
				}
				for d := range a.LS {
					if math.Float64bits(a.LS[d]) != math.Float64bits(b.LS[d]) {
						t.Fatalf("core %v shard %d CF %d comp %d: bits differ", kind, s, i, d)
					}
				}
			}
		}
	}
}

// hasNonFiniteWord reports whether some 8-byte little-endian word of
// words is a NaN or an infinity.
func hasNonFiniteWord(words []byte) bool {
	for i := 0; i+8 <= len(words); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(words[i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// TestDecodePointsRejectsNonFinite is the dense decoder's value table:
// NaN (quiet, signalling, negative) and ±Inf in any coordinate of any
// point fail the payload with ErrNonFinite; the extreme finite values
// decode bit for bit.
func TestDecodePointsRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		bits uint64
		ok   bool
	}{
		{math.Float64bits(math.NaN()), false},
		{0x7ff0000000000001, false}, // signalling NaN
		{0xfff8000000000000, false}, // negative NaN
		{math.Float64bits(math.Inf(1)), false},
		{math.Float64bits(math.Inf(-1)), false},
		{math.Float64bits(math.MaxFloat64), true},
		{math.Float64bits(-math.MaxFloat64), true},
		{math.Float64bits(math.SmallestNonzeroFloat64), true},
		{math.Float64bits(math.Copysign(0, -1)), true},
	} {
		for _, slot := range []int{0, 5, 11} {
			pts := testPoints(4, 3)
			pts[slot/3][slot%3] = math.Float64frombits(c.bits)
			frame, err := AppendPointsFrame(nil, pts, 3)
			if err != nil {
				t.Fatal(err)
			}
			_, payload, err := DecodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := DecodePointsInto(payload, 3, nil, nil)
			if !c.ok {
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("bits %x in slot %d: err %v, want ErrNonFinite", c.bits, slot, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("bits %x in slot %d: %v", c.bits, slot, err)
			}
			if b := math.Float64bits(got[slot/3][slot%3]); b != c.bits {
				t.Fatalf("bits %x in slot %d decoded as %x", c.bits, slot, b)
			}
		}
	}
}

// TestFrameCorruptionRejected flips, truncates and extends frames and
// requires every mutation to be rejected before payload interpretation.
func TestFrameCorruptionRejected(t *testing.T) {
	frame, err := AppendPointsFrame(nil, testPoints(5, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrame(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, _, err := DecodeFrame(append(frame[:len(frame):len(frame)], 0)); err == nil {
		t.Fatal("extended frame accepted")
	}
	if _, _, err := DecodeFrame(frame[:4]); err == nil {
		t.Fatal("header-only frame accepted")
	}
	for _, pos := range []int{0, 4, 8, 9, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x40
		if _, _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
	// Dimension mismatch is caught by the payload decoder.
	_, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodePointsInto(payload, 3, nil, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestDecodeSummariesBoundsCounts: a declared count is checked against
// the bytes left before anything is allocated from it. Each payload here
// once ended in an unrecoverable out-of-memory crash: a 9-byte payload
// declaring 2³²−1 shards, and a CF count that, multiplied by a row size
// near 2³⁵ bytes, overflowed past the length check.
func TestDecodeSummariesBoundsCounts(t *testing.T) {
	header := func(kind cf.CoreKind, dim, shards uint32) []byte {
		b := []byte{byte(kind)}
		b = binary.LittleEndian.AppendUint32(b, dim)
		return binary.LittleEndian.AppendUint32(b, shards)
	}
	shard := func(b []byte, cfs uint32) []byte {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		return binary.LittleEndian.AppendUint32(b, cfs)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"shard count past the payload", header(cf.CoreClassic, 1, math.MaxUint32)},
		{"row bytes overflow int", shard(header(cf.CoreClassic, math.MaxUint32, 1), math.MaxUint32)},
		{"row bytes overflow int, betula", shard(header(cf.CoreBETULA, math.MaxUint32, 1), 1<<28)},
		{"one CF too many", append(shard(header(cf.CoreClassic, 2, 1), 2), make([]byte, 32)...)},
	} {
		if _, _, _, err := DecodeSummaries(tc.payload); !errors.Is(err, ErrPayloadShape) {
			t.Errorf("%s: err = %v, want ErrPayloadShape", tc.name, err)
		}
	}
}

// TestRetiredSummariesTypeRejected: type 0x04 carried (N, LS, SS) rows,
// so a peer still sending it must get ErrFrameType, never misread CFs.
func TestRetiredSummariesTypeRejected(t *testing.T) {
	if MsgSummaries == 0x04 {
		t.Fatal("MsgSummaries reuses the retired type 0x04")
	}
	sum := core.Summary{Threshold: 1, CFs: []cf.CF{cf.FromPoint(vec.Vector{1, 2})}}
	frame, err := AppendSummariesFrame(nil, cf.CoreClassic, 2, []core.Summary{sum})
	if err != nil {
		t.Fatal(err)
	}
	old := buildFrame(0x04, frame[frameHeader:])
	if _, _, err := DecodeFrame(old); !errors.Is(err, ErrFrameType) {
		t.Fatalf("0x04 frame: err = %v, want ErrFrameType", err)
	}
}

// buildFrame frames payload under type typ, valid CRC and all.
func buildFrame(typ byte, payload []byte) []byte {
	dst, start := beginFrame(nil, typ)
	return finishFrame(append(dst, payload...), start)
}

// FuzzFrameDecode drives the frame and payload decoders with arbitrary
// payloads under a fuzzed type byte. The target frames them itself, so
// the CRC holds and the payload decoders see every input. They must
// reject or parse, never panic, and an accepted point frame must
// re-encode to the identical bytes (the codec is canonical).
func FuzzFrameDecode(f *testing.F) {
	points, _ := AppendPointsFrame(nil, testPoints(3, 2), 2)
	f.Add(MsgPoints, points[frameHeader:])
	nan, _ := AppendPointsFrame(nil, []vec.Vector{{1, math.NaN()}, {math.Inf(-1), 0}}, 2)
	f.Add(MsgPoints, nan[frameHeader:])
	f.Add(MsgClassifyResult, AppendClassifyResultFrame(nil, []int{1}, []float64{2})[frameHeader:])
	f.Add(MsgAck, AppendAckFrame(nil, 7)[frameHeader:])
	sums := []core.Summary{{Threshold: 0.5, CFs: []cf.CF{cf.FromPoint(vec.Vector{1, 2}), cf.FromPoint(vec.Vector{3, 4})}}}
	summaries, _ := AppendSummariesFrame(nil, cf.CoreClassic, 2, sums)
	f.Add(MsgSummaries, summaries[frameHeader:])
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if len(payload) > maxFramePayload {
			return
		}
		data := buildFrame(typ, payload)
		typ, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch typ {
		case MsgPoints:
			_, pts, err := DecodePointsInto(payload, 2, nil, nil)
			if errors.Is(err, ErrNonFinite) && !hasNonFiniteWord(payload[8:]) {
				t.Fatalf("payload rejected as non-finite without a non-finite coordinate: %v", err)
			}
			if err == nil {
				re, err := AppendPointsFrame(nil, pts, 2)
				if err != nil {
					t.Fatalf("re-encode of accepted frame failed: %v", err)
				}
				if string(re) != string(data) {
					t.Fatalf("points frame not canonical: %d vs %d bytes", len(re), len(data))
				}
			}
		case MsgClassifyResult:
			DecodeClassifyResultInto(payload, nil, nil)
		case MsgAck:
			DecodeAck(payload)
		case MsgSummaries:
			DecodeSummaries(payload)
		case MsgSparsePoints:
			DecodeSparsePointsInto(payload, 4, nil, nil, nil)
		}
	})
}
