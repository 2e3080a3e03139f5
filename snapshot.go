package birch

// Snapshot persistence: a Clusterer's Phase 1 state is, by construction,
// just its leaf-entry CF summaries plus the threshold that produced them
// — a few kilobytes regardless of how many points have streamed through.
// WriteSnapshot serializes that state; ResumeSnapshot reconstructs a
// Clusterer that continues absorbing points where the old one stopped.
// This is what makes BIRCH practical for long-running ingestion: the
// checkpoint cost is O(tree), never O(data).
//
// A snapshot stores summaries only, so a resumed Clusterer cannot run
// Phase 4 over points that streamed through before the checkpoint;
// ResumeSnapshot therefore requires cfg.Refine == false, mirroring
// InsertCF.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/vec"
)

// snapshotMagic identifies the format; the version guards against layout
// changes. Version 2 added a CF-core tag byte after the magic: a snapshot
// of BETULA (N, μ, S) components must never be decoded as a classic
// (N, LS, SS) triple — the bytes would parse but every statistic derived
// from them would be silently wrong. Version 1 snapshots predate the
// backend choice and are accepted as classic.
var snapshotMagic = [8]byte{'B', 'I', 'R', 'C', 'H', 'S', 'S', '2'}

// snapshotMagicV1 is the pre-core-tag format, read-compatible as classic.
var snapshotMagicV1 = [8]byte{'B', 'I', 'R', 'C', 'H', 'S', 'S', '1'}

// WriteSnapshot serializes the Clusterer's current Phase 1 state: the
// dimensionality, the current threshold, and every leaf-entry CF. It can
// be called any time before Finish.
func (c *Clusterer) WriteSnapshot(w io.Writer) error {
	if c.done {
		return errors.New("birch: WriteSnapshot after Finish")
	}
	tree := c.eng.Tree()
	cfs := tree.LeafCFs()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(c.cfg.Core)); err != nil {
		return err
	}
	hdr := []uint64{
		uint64(c.cfg.Dim),
		math.Float64bits(tree.Threshold()),
		uint64(len(cfs)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for i := range cfs {
		if err := writeCF(bw, &cfs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ResumeSnapshot reconstructs a Clusterer from a snapshot written by
// WriteSnapshot. The provided configuration must use the snapshot's
// dimensionality and must have Refine off (summaries carry no points to
// re-scan); its InitialThreshold is raised to the snapshot's threshold
// so the restored entries are valid leaf entries.
func ResumeSnapshot(r io.Reader, cfg Config) (*Clusterer, error) {
	if cfg.Refine {
		return nil, errors.New("birch: ResumeSnapshot requires Refine=false")
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("birch: reading snapshot magic: %w", err)
	}
	snapCore := cf.CoreClassic
	switch magic {
	case snapshotMagic:
		kb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("birch: reading snapshot core tag: %w", err)
		}
		snapCore = cf.CoreKind(kb)
		if !snapCore.Valid() {
			return nil, fmt.Errorf("birch: unknown snapshot core kind %d", kb)
		}
	case snapshotMagicV1:
		// Pre-core-tag snapshots always carried classic triples.
	default:
		return nil, errors.New("birch: not a BIRCH snapshot (bad magic)")
	}
	if snapCore != cfg.Core {
		return nil, fmt.Errorf("birch: snapshot core %v, config core %v — a %v snapshot cannot be reinterpreted under another backend",
			snapCore, cfg.Core, snapCore)
	}
	var dim, count uint64
	var tbits uint64
	for _, dst := range []*uint64{&dim, &tbits, &count} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("birch: reading snapshot header: %w", err)
		}
	}
	threshold := math.Float64frombits(tbits)
	if dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("birch: implausible snapshot dimension %d", dim)
	}
	if int(dim) != cfg.Dim {
		return nil, fmt.Errorf("birch: snapshot dimension %d, config dimension %d", dim, cfg.Dim)
	}
	if math.IsNaN(threshold) || threshold < 0 {
		return nil, fmt.Errorf("birch: implausible snapshot threshold %g", threshold)
	}
	if threshold > cfg.InitialThreshold {
		cfg.InitialThreshold = threshold
	}

	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	c := &Clusterer{cfg: cfg, eng: eng}
	var points int64
	for i := uint64(0); i < count; i++ {
		entry, err := readCF(br, int(dim), snapCore)
		if err != nil {
			return nil, fmt.Errorf("birch: reading snapshot entry %d: %w", i, err)
		}
		// The tree sums entry counts into its nonleaf CFs; a total past
		// int64 would wrap them negative.
		if entry.N > math.MaxInt64-points {
			return nil, fmt.Errorf("birch: snapshot entry %d: total point count overflows int64", i)
		}
		points += entry.N
		if err := eng.AddCF(entry); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// writeCF emits one CF as N, SS, LS[0..d) — under BETULA the same slots
// carry (N, S, μ[0..d)).
func writeCF(w io.Writer, c *cf.CF) error {
	if err := binary.Write(w, binary.LittleEndian, c.N); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, c.SS); err != nil {
		return err
	}
	for _, v := range c.LS {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// readCF parses one CF of dimension d under the given core backend. The
// components are decoded into locals and assembled through the backend's
// FromComponents, which validates them — raw cf.CF field writes outside
// internal/cf are a birchlint violation (cfmutate).
func readCF(r io.Reader, dim int, kind cf.CoreKind) (cf.CF, error) {
	var n int64
	var ss float64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return cf.CF{}, err
	}
	if err := binary.Read(r, binary.LittleEndian, &ss); err != nil {
		return cf.CF{}, err
	}
	ls := vec.New(dim)
	for i := range ls {
		if err := binary.Read(r, binary.LittleEndian, &ls[i]); err != nil {
			return cf.CF{}, err
		}
	}
	return cf.CoreFor(kind).FromComponents(n, ls, ss)
}
