package cf

// The CF-state codec: the one binary layout for every record of CF
// state — engine and tree checkpoints, the durable store's shard
// headers and MANIFEST, root snapshots and birchd's summaries frame.
//
// A row is one CF's storage slots, little-endian:
//
//	i64 N, f64 SS, dim × f64 LS
//
// Under BETULA the same slots hold (N, S, μ), so a row is only ever
// decoded under the core tag its record carries, and only through that
// core's FromComponents, which rejects a corrupt triple before it can
// enter the additivity algebra.
//
// Sections: a Writer hashes every byte it writes into a running CRC-32C
// (Castagnoli) and Seal appends that sum, so a section's CRC covers its
// magic and every field after it, up to the trailer. A Reader mirrors
// it, and Check verifies the trailer. One record may chain sections
// (a shard checkpoint is header, engine section, tree image) through one
// Writer or Reader: NewWriter and NewReader return their argument when
// it already is one, as bufio does, so a layer that hands its stream to
// the next keeps one buffer and one byte position.
//
// Nothing is allocated from a decoded count until the count is bounded:
// DecodeRows checks it against the bytes left, and stream readers
// append one row at a time, so a forged count costs at most the bytes
// that back it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"birch/internal/vec"
)

// ErrTruncated is wrapped by decode errors where the input ends before
// the rows or fields it declares.
var ErrTruncated = errors.New("cf: record truncated")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// rowSize is the encoded size of one row of dimension dim.
func rowSize(dim int) int { return 16 + 8*dim }

// AppendRow appends c's row to dst.
func AppendRow(dst []byte, c *CF) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.N))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.SS))
	for _, v := range c.LS {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeRow decodes one row of b, which holds exactly rowSize(dim) bytes.
func decodeRow(b []byte, kind CoreKind, dim int) (CF, error) {
	if !kind.Valid() {
		return CF{}, fmt.Errorf("cf: unknown core kind %d", kind)
	}
	n := int64(binary.LittleEndian.Uint64(b))
	s := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	comps := vec.New(dim)
	for j := range comps {
		comps[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[16+8*j:]))
	}
	return CoreFor(kind).FromComponents(n, comps, s)
}

// DecodeRows decodes count rows of dimension dim under kind from the
// front of b and returns them with the rest of b. A count the remaining
// bytes cannot hold is rejected with ErrTruncated before anything is
// allocated.
func DecodeRows(b []byte, kind CoreKind, dim, count int) ([]CF, []byte, error) {
	if dim <= 0 || count < 0 {
		return nil, b, fmt.Errorf("cf: %d rows of dimension %d", count, dim)
	}
	if count == 0 {
		return nil, b, nil
	}
	if dim > len(b)/8 || count > len(b)/rowSize(dim) {
		return nil, b, fmt.Errorf("%w: %d rows of dimension %d in %d bytes", ErrTruncated, count, dim, len(b))
	}
	size := rowSize(dim)
	out := make([]CF, count)
	for i := range out {
		c, err := decodeRow(b[:size], kind, dim)
		if err != nil {
			return nil, b, fmt.Errorf("cf: row %d: %w", i, err)
		}
		out[i] = c
		b = b[size:]
	}
	return out, b, nil
}

// Writer writes little-endian fields and rows through a buffer, keeping
// the running CRC-32C of the current section. Errors are sticky: after
// the first failure every call is a no-op, and Flush reports it.
type Writer struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf []byte
}

// NewWriter returns a Writer on w, or w itself if it already is one.
func NewWriter(w io.Writer) *Writer {
	if e, ok := w.(*Writer); ok {
		return e
	}
	return &Writer{w: bufio.NewWriter(w)}
}

// Write implements io.Writer, so a Writer can be handed to a layer that
// takes one; the bytes count toward the current section.
func (e *Writer) Write(p []byte) (int, error) {
	e.Bytes(p)
	if e.err != nil {
		return 0, e.err
	}
	return len(p), nil
}

// Bytes writes p verbatim.
func (e *Writer) Bytes(p []byte) {
	if e.err != nil {
		return
	}
	e.crc = crc32.Update(e.crc, crcTable, p)
	_, e.err = e.w.Write(p)
}

// U8 writes one byte.
func (e *Writer) U8(v uint8) { e.Bytes(append(e.buf[:0], v)) }

// U32 writes a little-endian uint32.
func (e *Writer) U32(v uint32) { e.Bytes(binary.LittleEndian.AppendUint32(e.buf[:0], v)) }

// U64 writes a little-endian uint64.
func (e *Writer) U64(v uint64) { e.Bytes(binary.LittleEndian.AppendUint64(e.buf[:0], v)) }

// I64 writes an int64 in two's complement.
func (e *Writer) I64(v int64) { e.U64(uint64(v)) }

// F64 writes a float64's bits.
func (e *Writer) F64(v float64) { e.U64(math.Float64bits(v)) }

// Row writes c's row.
func (e *Writer) Row(c *CF) {
	e.buf = AppendRow(e.buf[:0], c)
	e.Bytes(e.buf)
}

// Seal ends the current section: it writes the section's CRC-32C, which
// covers every byte since the previous Seal (or the start), and starts
// the next section.
func (e *Writer) Seal() {
	e.U32(e.crc)
	e.crc = 0
}

// Flush writes out the buffer and returns the first error of any call.
func (e *Writer) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Reader mirrors Writer: it reads fields and rows through a buffer,
// keeping the running CRC-32C of the current section. Errors are
// sticky: after the first failure every field reads as zero, so a
// caller may read a group of fields and check Err once before trusting
// any of them.
type Reader struct {
	r   *bufio.Reader
	crc uint32
	err error
	buf [8]byte
	row []byte
}

// NewReader returns a Reader on r, or r itself if it already is one. The
// Reader buffers, so it may consume bytes of r past the last field read.
func NewReader(r io.Reader) *Reader {
	if d, ok := r.(*Reader); ok {
		return d
	}
	return &Reader{r: bufio.NewReader(r)}
}

// Read implements io.Reader, so a Reader can be handed to a layer that
// takes one; the bytes count toward the current section.
func (d *Reader) Read(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	n, err := d.r.Read(p)
	d.crc = crc32.Update(d.crc, crcTable, p[:n])
	return n, err
}

// Err returns the first error the Reader met, or nil.
func (d *Reader) Err() error { return d.err }

// Bytes fills p, or zeroes it once the Reader has failed.
func (d *Reader) Bytes(p []byte) {
	if d.err == nil {
		if _, err := io.ReadFull(d.r, p); err != nil {
			d.err = fmt.Errorf("%w: short read: %v", ErrTruncated, err)
		}
	}
	if d.err != nil {
		clear(p)
		return
	}
	d.crc = crc32.Update(d.crc, crcTable, p)
}

// U8 reads one byte.
func (d *Reader) U8() uint8 {
	d.Bytes(d.buf[:1])
	return d.buf[0]
}

// U32 reads a little-endian uint32.
func (d *Reader) U32() uint32 {
	d.Bytes(d.buf[:4])
	return binary.LittleEndian.Uint32(d.buf[:4])
}

// U64 reads a little-endian uint64.
func (d *Reader) U64() uint64 {
	d.Bytes(d.buf[:])
	return binary.LittleEndian.Uint64(d.buf[:])
}

// I64 reads an int64.
func (d *Reader) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Reader) F64() float64 { return math.Float64frombits(d.U64()) }

// Row reads one row of dimension dim and builds its CF under kind. An
// invalid row fails the Reader like a short read does.
func (d *Reader) Row(kind CoreKind, dim int) (CF, error) {
	if cap(d.row) < rowSize(dim) {
		d.row = make([]byte, rowSize(dim))
	}
	b := d.row[:rowSize(dim)]
	d.Bytes(b)
	if d.err != nil {
		return CF{}, d.err
	}
	c, err := decodeRow(b, kind, dim)
	if err != nil {
		d.err = fmt.Errorf("invalid CF components: %w", err)
		return CF{}, d.err
	}
	return c, nil
}

// Check reads the current section's CRC trailer, compares it with the
// running sum and starts the next section. It returns the Reader's first
// error, a mismatch included.
func (d *Reader) Check() error {
	sum := d.crc
	stored := d.U32()
	d.crc = 0
	if d.err == nil && stored != sum {
		d.err = fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", stored, sum)
	}
	return d.err
}
