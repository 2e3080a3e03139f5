package server

// Wire codec: the compact binary framing birchd speaks on its batch
// paths (insert-batch, classify-batch, summary). JSON is kept for
// operability — curl, dashboards, one-off scripts — but float-heavy
// batch traffic would spend most of its cycles in strconv; the binary
// codec moves raw IEEE-754 bits instead, which is also what makes the
// coordinator's wire-level CF merge exact: a summary survives the trip
// bit-for-bit, so merging remote summaries equals merging local ones.
//
// Framing follows the WAL's discipline (pager/wal.go): every message is
//
//	[u32 frameLen = 1 + len(payload)] [u32 crc] [u8 type] [payload]
//
// little-endian, where crc is CRC-32C (Castagnoli) over type||payload.
// A frame is rejected on bad length, bad CRC or unknown type before any
// payload field is trusted; payload shapes are then validated against
// the declared counts, so a truncated or corrupt body can never smuggle
// a malformed batch into the engine.
//
// Payload shapes (all integers little-endian, all floats as Float64bits):
//
//	MsgPoints          u32 count, u32 dim, count·dim × u64
//	MsgClassifyResult  u32 count, count × (u32 cluster, u64 distBits)
//	MsgAck             u64 accepted
//	MsgSummaries       u8 coreKind, u32 dim, u32 shards, then per shard:
//	                   u64 thresholdBits, u32 cfs, cfs rows of the
//	                   internal/cf codec (u64 N, u64 scalar, dim × u64)
//	MsgError           UTF-8 message bytes
//	MsgSparsePoints    u32 count, u32 dim, then per point:
//	                   u32 nnz, nnz × u32 idx, nnz × u64 valBits
//
// MsgSparsePoints is the high-dimensional batch tier: a point costs
// 4 + 12·nnz bytes instead of 8·dim, so at 5% density in d = 1024 a
// batch frame is ~13× smaller than the dense equivalent. Decoded points
// are validated (vec.Sparse.Validate) before they reach the engine, and
// inserting them is bit-identical to inserting their densifications
// (the sparse insert path's contract, internal/cf/sparse.go).
//
// MsgSummaries carries the *raw storage slots* of each CF — (N, SS, LS)
// under the classic core, (N, S, μ) under BETULA — tagged with the core
// kind, in the same row layout as checkpoints and snapshots; decode goes
// through cf.DecodeRows, the validation gate for untrusted summaries,
// which bounds every count by the bytes left before it allocates. Type
// 0x04 carried an older (N, LS, SS) row order and is retired, so a peer
// still speaking it gets ErrFrameType instead of misread CFs.
//
// The encode/decode pairs on the batch hot paths are zero-allocation
// against reused buffers (append-with-assign-back only), which the
// server's pooled request scratch and the Client's buffer pools supply;
// the AllocsPerRun gates live in alloc_test.go and the annotations are
// checked by the birchlint hotpath pass.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/vec"
)

// Message types. The zero value is deliberately invalid, and so is the
// retired summaries type.
const (
	MsgPoints         byte = 0x01
	MsgClassifyResult byte = 0x02
	MsgAck            byte = 0x03
	msgOldSummaries   byte = 0x04 // retired: (N, LS, SS) rows
	MsgError          byte = 0x05
	MsgSparsePoints   byte = 0x06
	MsgSummaries      byte = 0x07
)

// frameHeader is the fixed byte overhead per frame: len + crc + type.
const frameHeader = 9

// maxFramePayload bounds a single frame; larger declared lengths are
// treated as corruption (mirrors pager.walMaxPayload).
const maxFramePayload = 1 << 26

// maxFrameBytes bounds a whole frame, header included: the largest
// request body the server reads and the largest response body Client
// reads.
const maxFrameBytes = frameHeader + maxFramePayload

// ContentTypeFrame is the HTTP content type of a request or response
// body holding exactly one wire frame.
const ContentTypeFrame = "application/x-birch-frame"

var wireCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Frame shape errors. Decode functions wrap these with context where it
// is free; the sentinels keep the hot paths allocation-clean.
var (
	ErrFrameTooShort = errors.New("server: frame shorter than its header")
	ErrFrameLength   = errors.New("server: frame length inconsistent with body")
	ErrFrameCRC      = errors.New("server: frame CRC mismatch")
	ErrFrameType     = errors.New("server: unknown frame type")
	ErrPayloadShape  = errors.New("server: payload inconsistent with declared counts")
	// ErrNonFinite rejects a dense points payload with a NaN or ±Inf
	// coordinate: no engine can summarize one, and a snapshot holding it
	// cannot be encoded as JSON.
	ErrNonFinite = errors.New("server: non-finite coordinate")
)

// appendU32 / appendU64 are the primitive emitters; append with
// assign-back keeps them allocation-free against a warm buffer.
//
//birchlint:hotpath
func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	dst = append(dst, b[:]...)
	return dst
}

//birchlint:hotpath
func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	dst = append(dst, b[:]...)
	return dst
}

// reserve returns dst with room for n more bytes, growing it in one
// allocation when it lacks them: an encoder handed a nil or short buffer
// then allocates once for the whole frame instead of once per append
// that outgrows the buffer. Against a warm buffer it does nothing.
//
//birchlint:hotpath
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	return dst
}

// beginFrame reserves the 9-byte frame header at dst's tail and returns
// the extended buffer plus the frame's start offset for finishFrame.
//
//birchlint:hotpath
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	start := len(dst)
	var hdr [frameHeader]byte
	hdr[8] = typ
	dst = append(dst, hdr[:]...)
	return dst, start
}

// finishFrame back-fills the length and CRC of the frame that begins at
// start, now that its payload has been appended after the header.
//
//birchlint:hotpath
func finishFrame(dst []byte, start int) []byte {
	body := dst[start+8:] // type byte || payload
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, wireCRCTable))
	return dst
}

// AppendPointsFrame appends one MsgPoints frame carrying pts to dst.
// Every point must have dimension dim. Zero allocations against a
// buffer with sufficient capacity, one otherwise.
//
//birchlint:hotpath
func AppendPointsFrame(dst []byte, pts []vec.Vector, dim int) ([]byte, error) {
	dst = reserve(dst, frameHeader+8+8*dim*len(pts))
	dst, start := beginFrame(dst, MsgPoints)
	dst = appendU32(dst, uint32(len(pts)))
	dst = appendU32(dst, uint32(dim))
	for i := range pts {
		if len(pts[i]) != dim {
			return dst[:start], fmt.Errorf("server: point %d dimension %d, frame dimension %d", i, len(pts[i]), dim)
		}
		for _, v := range pts[i] {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return finishFrame(dst, start), nil
}

// AppendSparsePointsFrame appends one MsgSparsePoints frame carrying sps
// to dst. Every point must have dimension dim. Zero allocations against
// a buffer with sufficient capacity, one otherwise.
//
//birchlint:hotpath
func AppendSparsePointsFrame(dst []byte, sps []vec.Sparse, dim int) ([]byte, error) {
	size := frameHeader + 8
	for i := range sps {
		size += 4 + 4*len(sps[i].Idx) + 8*len(sps[i].Val)
	}
	dst = reserve(dst, size)
	dst, start := beginFrame(dst, MsgSparsePoints)
	dst = appendU32(dst, uint32(len(sps)))
	dst = appendU32(dst, uint32(dim))
	for i := range sps {
		if sps[i].Dim() != dim {
			return dst[:start], fmt.Errorf("server: sparse point %d dimension %d, frame dimension %d", i, sps[i].Dim(), dim)
		}
		idx, val := sps[i].Idx, sps[i].Val
		dst = appendU32(dst, uint32(len(idx)))
		for _, ix := range idx {
			dst = appendU32(dst, uint32(ix))
		}
		for _, v := range val {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return finishFrame(dst, start), nil
}

// DecodeSparsePointsInto decodes a MsgSparsePoints payload, reusing the
// caller's index/value backing arrays and point-header slice (grown only
// when capacity requires). Every decoded point is validated through
// vec.Sparse.Validate — the codec is a trust boundary, so malformed
// index lists (out of range, unsorted, duplicated) and non-finite values
// are rejected here, before any point can reach an engine. The returned
// points alias the backing arrays, which stay valid until the caller's
// next reuse. Zero allocations against warm buffers.
//
//birchlint:hotpath
func DecodeSparsePointsInto(payload []byte, wantDim int, idxB []int32, valB []float64, sps []vec.Sparse) ([]int32, []float64, []vec.Sparse, error) {
	if len(payload) < 8 {
		return idxB, valB, sps[:0], ErrPayloadShape
	}
	count := int(binary.LittleEndian.Uint32(payload))
	dim := int(binary.LittleEndian.Uint32(payload[4:]))
	if dim != wantDim {
		return idxB, valB, sps[:0], fmt.Errorf("server: frame dimension %d, engine dimension %d", dim, wantDim)
	}
	if count < 0 {
		return idxB, valB, sps[:0], ErrPayloadShape
	}
	// First pass: walk the per-point headers to validate the framing and
	// total the nonzeros, so the backing arrays can be sized before any
	// point header aliases them.
	off, total := 8, 0
	for p := 0; p < count; p++ {
		if len(payload) < off+4 {
			return idxB, valB, sps[:0], ErrPayloadShape
		}
		nnz := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if nnz < 0 || nnz > dim || len(payload) < off+nnz*12 {
			return idxB, valB, sps[:0], ErrPayloadShape
		}
		off += nnz * 12
		total += nnz
	}
	if off != len(payload) {
		return idxB, valB, sps[:0], ErrPayloadShape
	}
	if cap(idxB) < total {
		idxB = make([]int32, total)
	}
	if cap(valB) < total {
		valB = make([]float64, total)
	}
	if cap(sps) < count {
		sps = make([]vec.Sparse, count)
	}
	idxB, valB, sps = idxB[:total], valB[:total], sps[:count]
	off, n := 8, 0
	for p := 0; p < count; p++ {
		nnz := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		ii := idxB[n : n+nnz : n+nnz]
		vv := valB[n : n+nnz : n+nnz]
		for t := 0; t < nnz; t++ {
			ii[t] = int32(binary.LittleEndian.Uint32(payload[off:]))
			off += 4
		}
		for t := 0; t < nnz; t++ {
			vv[t] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		sp := vec.Sparse{D: dim, Idx: ii, Val: vv}
		if err := sp.Validate(); err != nil {
			return idxB, valB, sps[:0], fmt.Errorf("server: sparse point %d: %w", p, err)
		}
		sps[p] = sp
		n += nnz
	}
	return idxB, valB, sps, nil
}

// AppendClassifyResultFrame appends one MsgClassifyResult frame pairing
// idx[i] with dist[i]. The slices must be the same length. Zero
// allocations against a buffer with sufficient capacity, one otherwise.
//
//birchlint:hotpath
func AppendClassifyResultFrame(dst []byte, idx []int, dist []float64) []byte {
	if len(idx) != len(dist) {
		panic("server: AppendClassifyResultFrame length mismatch")
	}
	dst = reserve(dst, frameHeader+4+12*len(idx))
	dst, start := beginFrame(dst, MsgClassifyResult)
	dst = appendU32(dst, uint32(len(idx)))
	for i := range idx {
		dst = appendU32(dst, uint32(idx[i]))
		dst = appendU64(dst, math.Float64bits(dist[i]))
	}
	return finishFrame(dst, start)
}

// AppendAckFrame appends one MsgAck frame acknowledging accepted points.
func AppendAckFrame(dst []byte, accepted int64) []byte {
	dst, start := beginFrame(dst, MsgAck)
	dst = appendU64(dst, uint64(accepted))
	return finishFrame(dst, start)
}

// AppendErrorFrame appends one MsgError frame carrying msg.
func AppendErrorFrame(dst []byte, msg string) []byte {
	dst, start := beginFrame(dst, MsgError)
	dst = append(dst, msg...)
	return finishFrame(dst, start)
}

// AppendSummariesFrame appends one MsgSummaries frame carrying the raw
// per-shard leaf-CF summaries: the engine side of the wire-level CF
// merge. Every CF must belong to the declared core kind and dimension.
func AppendSummariesFrame(dst []byte, kind cf.CoreKind, dim int, sums []core.Summary) ([]byte, error) {
	dst, start := beginFrame(dst, MsgSummaries)
	dst = append(dst, byte(kind))
	dst = appendU32(dst, uint32(dim))
	dst = appendU32(dst, uint32(len(sums)))
	for si := range sums {
		dst = appendU64(dst, math.Float64bits(sums[si].Threshold))
		dst = appendU32(dst, uint32(len(sums[si].CFs)))
		for ci := range sums[si].CFs {
			c := &sums[si].CFs[ci]
			if c.Kind() != kind {
				return dst[:start], fmt.Errorf("server: summary %d CF %d is %v, frame core is %v", si, ci, c.Kind(), kind)
			}
			if len(c.LS) != dim {
				return dst[:start], fmt.Errorf("server: summary %d CF %d dimension %d, frame dimension %d", si, ci, len(c.LS), dim)
			}
			dst = cf.AppendRow(dst, c)
		}
	}
	return finishFrame(dst, start), nil
}

// DecodeFrame validates the framing of exactly one message — length,
// CRC, known type — and returns its type and payload. The payload
// aliases frame; no bytes are copied.
//
//birchlint:hotpath
func DecodeFrame(frame []byte) (typ byte, payload []byte, err error) {
	if len(frame) < frameHeader {
		return 0, nil, ErrFrameTooShort
	}
	n := binary.LittleEndian.Uint32(frame)
	if n < 1 || n > maxFramePayload+1 || int(n) != len(frame)-8 {
		return 0, nil, ErrFrameLength
	}
	body := frame[8:]
	if crc32.Checksum(body, wireCRCTable) != binary.LittleEndian.Uint32(frame[4:]) {
		return 0, nil, ErrFrameCRC
	}
	typ = body[0]
	if typ < MsgPoints || typ > MsgSummaries || typ == msgOldSummaries {
		return 0, nil, ErrFrameType
	}
	return typ, body[1:], nil
}

// DecodePointsInto decodes a MsgPoints payload, reusing the caller's
// backing array and vector-header slice (grown only when capacity
// requires). Like the sparse decoder it is a trust boundary: a NaN or
// ±Inf coordinate (all exponent bits set) fails the whole payload with
// ErrNonFinite, so insert and classify frames — and shard daemons behind
// a coordinator, which decode the same frames — reject it before any
// point is queued. The returned vectors alias backing, which stays valid
// until the caller's next reuse. Zero allocations against warm buffers.
//
//birchlint:hotpath
func DecodePointsInto(payload []byte, wantDim int, backing []float64, pts []vec.Vector) ([]float64, []vec.Vector, error) {
	if len(payload) < 8 {
		return backing, pts[:0], ErrPayloadShape
	}
	count := int(binary.LittleEndian.Uint32(payload))
	dim := int(binary.LittleEndian.Uint32(payload[4:]))
	if dim != wantDim {
		return backing, pts[:0], fmt.Errorf("server: frame dimension %d, engine dimension %d", dim, wantDim)
	}
	if count < 0 || len(payload) != 8+count*dim*8 {
		return backing, pts[:0], ErrPayloadShape
	}
	need := count * dim
	if cap(backing) < need {
		backing = make([]float64, need)
	}
	backing = backing[:need]
	const expMask = 0x7ff0000000000000
	for i := 0; i < need; i++ {
		bits := binary.LittleEndian.Uint64(payload[8+i*8:])
		if bits&expMask == expMask {
			return backing, pts[:0], fmt.Errorf("%w: point %d, coordinate %d", ErrNonFinite, i/dim, i%dim)
		}
		backing[i] = math.Float64frombits(bits)
	}
	if cap(pts) < count {
		pts = make([]vec.Vector, count)
	}
	pts = pts[:count]
	for i := 0; i < count; i++ {
		pts[i] = backing[i*dim : (i+1)*dim]
	}
	return backing, pts, nil
}

// DecodeClassifyResultInto decodes a MsgClassifyResult payload into the
// caller's reused slices. Zero allocations against warm buffers.
//
//birchlint:hotpath
func DecodeClassifyResultInto(payload []byte, idx []int, dist []float64) ([]int, []float64, error) {
	if len(payload) < 4 {
		return idx[:0], dist[:0], ErrPayloadShape
	}
	count := int(binary.LittleEndian.Uint32(payload))
	if count < 0 || len(payload) != 4+count*12 {
		return idx[:0], dist[:0], ErrPayloadShape
	}
	if cap(idx) < count {
		idx = make([]int, count)
	}
	if cap(dist) < count {
		dist = make([]float64, count)
	}
	idx, dist = idx[:count], dist[:count]
	for i := 0; i < count; i++ {
		off := 4 + i*12
		idx[i] = int(int32(binary.LittleEndian.Uint32(payload[off:])))
		dist[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+4:]))
	}
	return idx, dist, nil
}

// DecodeAck decodes a MsgAck payload.
func DecodeAck(payload []byte) (int64, error) {
	if len(payload) != 8 {
		return 0, ErrPayloadShape
	}
	return int64(binary.LittleEndian.Uint64(payload)), nil
}

// DecodeSummaries decodes a MsgSummaries payload, materializing every CF
// through cf.DecodeRows under the declared core — the validation gate
// for summaries from untrusted bytes. Every count is checked against the
// bytes left before anything is allocated from it. This is the
// coordinator's pull path, not a per-point hot path, so it allocates its
// results.
func DecodeSummaries(payload []byte) (cf.CoreKind, int, []core.Summary, error) {
	if len(payload) < 9 {
		return 0, 0, nil, ErrPayloadShape
	}
	kind := cf.CoreKind(payload[0])
	if !kind.Valid() {
		return 0, 0, nil, fmt.Errorf("server: unknown core kind %d in summaries frame", payload[0])
	}
	dim := int(binary.LittleEndian.Uint32(payload[1:]))
	shards := int(binary.LittleEndian.Uint32(payload[5:]))
	rest := payload[9:]
	// Each shard takes at least its 12-byte threshold and count.
	if dim <= 0 || shards > len(rest)/12 {
		return 0, 0, nil, ErrPayloadShape
	}
	sums := make([]core.Summary, shards)
	for s := range sums {
		if len(rest) < 12 {
			return 0, 0, nil, ErrPayloadShape
		}
		sums[s].Threshold = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		n := int(binary.LittleEndian.Uint32(rest[8:]))
		cfs, tail, err := cf.DecodeRows(rest[12:], kind, dim, n)
		if errors.Is(err, cf.ErrTruncated) {
			return 0, 0, nil, ErrPayloadShape
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("server: summaries frame shard %d: %w", s, err)
		}
		sums[s].CFs, rest = cfs, tail
	}
	if len(rest) != 0 {
		return 0, 0, nil, ErrPayloadShape
	}
	return kind, dim, sums, nil
}
