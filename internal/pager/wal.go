// Write-ahead log: a segmented, CRC-framed, replay-on-open record log.
// One WAL instance backs one stream shard (single writer); the generic
// record payload keeps the framing reusable for any byte-level redo
// stream.
//
// On-disk format. Segments are named <prefix>.wal.<firstSeq %020d>, so
// the lexicographic order of names is the numeric order of their first
// record sequence numbers. Each record is framed as
//
//	[u32 frameLen = 8 + len(payload)] [u32 crc] [u64 seq] [payload]
//
// little-endian, where crc is CRC-32C (Castagnoli) over seq||payload.
// Sequence numbers start at 1, or just past WALOptions.Covered, and
// increase by exactly 1 across segment boundaries.
//
// Recovery rule: replay is the longest valid prefix. OpenWAL scans
// segments in order and stops at the first invalid frame (bad length,
// bad CRC, out-of-order seq, or a frame extending past EOF — all the
// shapes a torn tail can take); the broken segment is truncated at the
// tear and every later segment is deleted. Rotation syncs the outgoing
// segment before opening its successor, so under an honest disk only
// the final segment can tear, but the prefix rule is enforced globally
// and keeps recovery correct even under dropped fsyncs.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
)

// walFrameHeader is the fixed byte overhead per record: len + crc + seq.
const walFrameHeader = 16

// walMaxPayload bounds a single record; larger appends are rejected and
// larger frame lengths on disk are treated as corruption.
const walMaxPayload = 1 << 26

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrPayloadTooLarge is returned by WAL.Append for oversized records.
var ErrPayloadTooLarge = errors.New("pager: WAL payload exceeds limit")

// DefaultSegmentBytes is the segment rotation size a zero
// WALOptions.SegmentBytes stands for.
const DefaultSegmentBytes = 1 << 20

// WALOptions tunes one WAL instance.
type WALOptions struct {
	// SegmentBytes rotates to a fresh segment once the active one
	// reaches this size. Zero means DefaultSegmentBytes.
	SegmentBytes int
	// SyncEvery syncs the active segment after every SyncEvery appended
	// records: 1 syncs every record (most durable), k amortizes over k
	// records, 0 never auto-syncs (durability only at explicit Sync,
	// rotation, and Close).
	SyncEvery int
	// Covered is the highest sequence number whose effects the caller
	// already holds elsewhere, such as a checkpoint. When the log holds
	// no record beyond it (it is empty, or its later segments are gone),
	// OpenWAL deletes what is left and restarts the log at Covered+1, so
	// a new record never reuses a number the next replay would skip.
	Covered uint64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = 0
	}
	return o
}

// ReplayStats reports what OpenWAL found and recovered.
type ReplayStats struct {
	Records         int64 // valid records replayed
	Bytes           int64 // bytes of valid frames replayed
	Segments        int   // segments scanned (before truncation)
	Torn            bool  // an invalid frame cut replay short
	DroppedBytes    int64 // bytes discarded at and after the tear
	DroppedSegments int   // whole segments deleted after the tear
}

// WAL is a single-writer segmented log. Methods are not safe for
// concurrent use; each stream shard owns its WAL exclusively.
type WAL struct {
	fs     FS
	prefix string
	opt    WALOptions

	active     File
	activeName string
	activeSize int64
	bytes      int64  // frame bytes across every segment on disk
	nextSeq    uint64 // seq the next Append will use
	sinceSync  int
	frame      []byte // Append's reusable frame buffer
}

// OpenWAL opens (creating if absent) the WAL named prefix on fs,
// replaying every valid record through apply in order. apply may be nil
// when the caller only needs the log positioned for writing. A non-nil
// error from apply aborts the open.
func OpenWAL(fs FS, prefix string, opt WALOptions, apply func(seq uint64, payload []byte) error) (*WAL, ReplayStats, error) {
	w := &WAL{fs: fs, prefix: prefix, opt: opt.withDefaults()}
	var stats ReplayStats

	segs, err := w.segments()
	if err != nil {
		return nil, stats, err
	}
	stats.Segments = len(segs)

	expect := uint64(1)
	if len(segs) > 0 {
		expect = segs[0].firstSeq
	}
	torn := false
	tornOff := int64(-1) // tear offset in the surviving segment; -1 = none
	for _, seg := range segs {
		if torn {
			// Everything after a tear is discarded.
			n := w.fileSize(seg.name)
			stats.DroppedBytes += n
			stats.DroppedSegments++
			if err := w.fs.Remove(seg.name); err != nil {
				return nil, stats, fmt.Errorf("pager: WAL drop segment %s: %w", seg.name, err)
			}
			continue
		}
		if seg.firstSeq != expect {
			// Gap between segments: treat the boundary as the tear. The
			// previous segment was fully valid, so nothing to truncate.
			torn = true
			tornOff = -1
			n := w.fileSize(seg.name)
			stats.DroppedBytes += n
			stats.DroppedSegments++
			if err := w.fs.Remove(seg.name); err != nil {
				return nil, stats, fmt.Errorf("pager: WAL drop segment %s: %w", seg.name, err)
			}
			continue
		}
		valid, nrec, lastSeq, total, err := w.replaySegment(seg.name, expect, apply)
		if err != nil {
			return nil, stats, err
		}
		stats.Records += nrec
		stats.Bytes += valid
		if valid < total {
			torn = true
			tornOff = valid
			stats.DroppedBytes += total - valid
		}
		if nrec > 0 {
			expect = lastSeq + 1
		}
	}
	stats.Torn = torn
	w.nextSeq = expect
	w.bytes = stats.Bytes

	// Position for appending: truncate the torn segment at the tear and
	// keep it active; otherwise append to the last surviving segment.
	segs, err = w.segments()
	if err != nil {
		return nil, stats, err
	}
	if w.nextSeq <= w.opt.Covered {
		// Every record left is covered: drop them all and start past
		// the covered range.
		for _, seg := range segs {
			if err := w.fs.Remove(seg.name); err != nil {
				return nil, stats, fmt.Errorf("pager: WAL drop covered segment %s: %w", seg.name, err)
			}
		}
		segs, w.nextSeq, w.bytes = nil, w.opt.Covered+1, 0
	}
	if len(segs) == 0 {
		if err := w.newSegment(w.nextSeq); err != nil {
			return nil, stats, err
		}
		return w, stats, nil
	}
	last := segs[len(segs)-1]
	f, err := w.fs.Open(last.name)
	if err != nil {
		return nil, stats, fmt.Errorf("pager: WAL open segment %s: %w", last.name, err)
	}
	size, err := f.Size()
	if err == nil && torn && tornOff >= 0 {
		size = tornOff
		err = f.Truncate(size)
	}
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, stats, fmt.Errorf("pager: WAL position segment %s: %w", last.name, err)
	}
	w.active, w.activeName, w.activeSize = f, last.name, size
	return w, stats, nil
}

type walSegment struct {
	name     string
	firstSeq uint64
}

// segments lists this WAL's segment files in first-seq order.
func (w *WAL) segments() ([]walSegment, error) {
	names, err := w.fs.List()
	if err != nil {
		return nil, fmt.Errorf("pager: WAL list: %w", err)
	}
	pre := w.prefix + ".wal."
	var segs []walSegment
	for _, name := range names {
		if !strings.HasPrefix(name, pre) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, pre), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, walSegment{name: name, firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

func (w *WAL) fileSize(name string) int64 {
	f, err := w.fs.Open(name)
	if err != nil {
		return 0
	}
	n, serr := f.Size()
	if serr != nil {
		n = 0
	}
	_ = f.Close() // read-only size probe; close failure is not actionable
	return n
}

// replaySegment validates name's frames starting at seq expect, calling
// apply per valid record. It returns the byte offset of the first
// invalid frame (== total size when the whole segment is valid), the
// record count, the last valid seq, and the segment's total size.
func (w *WAL) replaySegment(name string, expect uint64, apply func(uint64, []byte) error) (valid int64, nrec int64, lastSeq uint64, total int64, err error) {
	f, err := w.fs.Open(name)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("pager: WAL open segment %s: %w", name, err)
	}
	size, err := f.Size()
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return 0, 0, 0, 0, fmt.Errorf("pager: WAL size segment %s: %w", name, err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return 0, 0, 0, 0, fmt.Errorf("pager: WAL read segment %s: %w", name, err)
		}
	}
	if err := f.Close(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("pager: WAL close segment %s: %w", name, err)
	}

	off := int64(0)
	for off+walFrameHeader <= size {
		frameLen := binary.LittleEndian.Uint32(buf[off:])
		if frameLen < 8 || frameLen > walMaxPayload+8 {
			break
		}
		end := off + 8 + int64(frameLen)
		if end > size {
			break
		}
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		body := buf[off+8 : end]
		if crc32.Checksum(body, walCRCTable) != crc {
			break
		}
		seq := binary.LittleEndian.Uint64(body)
		if seq != expect {
			break
		}
		if apply != nil {
			if err := apply(seq, body[8:]); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("pager: WAL apply seq %d: %w", seq, err)
			}
		}
		lastSeq = seq
		expect++
		nrec++
		off = end
	}
	return off, nrec, lastSeq, size, nil
}

func (w *WAL) newSegment(firstSeq uint64) error {
	name := fmt.Sprintf("%s.wal.%020d", w.prefix, firstSeq)
	f, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("pager: WAL create segment %s: %w", name, err)
	}
	w.active, w.activeName, w.activeSize = f, name, 0
	return nil
}

// Append frames payload as the next record and writes it to the active
// segment, rotating first if the segment is full. It returns the
// record's sequence number. The record is durable only once a sync has
// covered it (per SyncEvery, or an explicit Sync/Close).
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > walMaxPayload {
		return 0, ErrPayloadTooLarge
	}
	frame := int64(walFrameHeader + len(payload))
	if w.activeSize > 0 && w.activeSize+frame > int64(w.opt.SegmentBytes) {
		if err := w.Rotate(); err != nil {
			return 0, err
		}
	}
	seq := w.nextSeq
	// Both FS implementations copy on WriteAt, so one WAL-owned frame
	// buffer serves every record.
	if int64(cap(w.frame)) < frame {
		w.frame = make([]byte, frame)
	}
	buf := w.frame[:frame]
	binary.LittleEndian.PutUint32(buf, uint32(8+len(payload)))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	copy(buf[16:], payload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], walCRCTable))
	if _, err := w.active.WriteAt(buf, w.activeSize); err != nil {
		return 0, fmt.Errorf("pager: WAL append seq %d: %w", seq, err)
	}
	w.activeSize += frame
	w.bytes += frame
	w.nextSeq = seq + 1
	w.sinceSync++
	if w.opt.SyncEvery > 0 && w.sinceSync >= w.opt.SyncEvery {
		if err := w.Sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync makes every appended record durable.
//
// Rotation syncs each outgoing segment before its successor is created,
// so syncing the active segment covers the whole log.
func (w *WAL) Sync() error {
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("pager: WAL sync %s: %w", w.activeName, err)
	}
	w.sinceSync = 0
	return nil
}

// Rotate syncs and closes the active segment and starts a fresh one.
// An empty active segment is only synced: it already is a fresh one.
func (w *WAL) Rotate() error {
	if err := w.Sync(); err != nil {
		return err
	}
	if w.activeSize == 0 {
		return nil
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("pager: WAL close %s: %w", w.activeName, err)
	}
	return w.newSegment(w.nextSeq)
}

// TruncateThrough deletes every whole segment whose records are all
// ≤ seq — the space-reclaim step after a checkpoint has captured their
// effects. The active segment is never deleted, so truncation is
// segment-granular: replay after recovery may still surface records
// ≤ seq and callers must filter by their checkpointed sequence number.
// A caller that rotates just before its checkpoint leaves every covered
// record in a closed segment, so nothing covered survives.
func (w *WAL) TruncateThrough(seq uint64) error {
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstSeq <= seq+1 && segs[i].name != w.activeName {
			n := w.fileSize(segs[i].name)
			if err := w.fs.Remove(segs[i].name); err != nil {
				return fmt.Errorf("pager: WAL truncate %s: %w", segs[i].name, err)
			}
			w.bytes -= n
		}
	}
	return nil
}

// Bytes returns the size of the log on disk: every frame replayed at
// open or appended since, less the segments TruncateThrough deleted.
func (w *WAL) Bytes() int64 { return w.bytes }

// LastSeq returns the sequence number of the most recently appended
// record (0 when the log is empty).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// Close syncs and closes the active segment.
func (w *WAL) Close() error {
	err := w.Sync()
	if cerr := w.active.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("pager: WAL close %s: %w", w.activeName, cerr))
	}
	return err
}
