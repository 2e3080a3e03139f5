package birch

// Snapshot persistence: a Clusterer's Phase 1 state is, by construction,
// just its leaf-entry CF summaries, the entries parked on the outlier
// disk and the threshold that produced them — a few kilobytes regardless
// of how many points have streamed through. WriteSnapshot serializes
// that state; ResumeSnapshot reconstructs a Clusterer that continues
// absorbing points where the old one stopped. This is what makes BIRCH
// practical for long-running ingestion: the checkpoint cost is O(tree),
// never O(data).
//
// A snapshot stores summaries only, so a resumed Clusterer cannot run
// Phase 4 over points that streamed through before the checkpoint;
// ResumeSnapshot therefore requires cfg.Refine == false, mirroring
// InsertCF.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"birch/internal/cf"
	"birch/internal/core"
)

// Snapshot format versions, one magic each. Every version writes its
// rows in the internal/cf codec layout (N, SS, LS — under BETULA the
// same slots carry N, S, μ):
//
//	v1  magic, u64 dim, f64 threshold, u64 count, count rows
//	v2  v1 plus a CF-core tag byte after the magic
//	v3  v2 plus u64 count and rows of the outlier-disk entries, then a
//	    CRC-32C trailer over every byte before it
//
// The core tag exists because a snapshot of BETULA (N, μ, S) components
// must never be decoded as a classic (N, LS, SS) triple — the bytes
// would parse but every statistic derived from them would be silently
// wrong. v1 snapshots predate the backend choice and read as classic.
// WriteSnapshot writes v3; ResumeSnapshot reads all three.
var (
	snapshotMagic   = [8]byte{'B', 'I', 'R', 'C', 'H', 'S', 'S', '3'}
	snapshotMagicV2 = [8]byte{'B', 'I', 'R', 'C', 'H', 'S', 'S', '2'}
	snapshotMagicV1 = [8]byte{'B', 'I', 'R', 'C', 'H', 'S', 'S', '1'}
)

// WriteSnapshot serializes the Clusterer's current Phase 1 state: the
// dimensionality, the current threshold, every leaf-entry CF and every
// entry on the outlier disk. It can be called any time before Finish.
func (c *Clusterer) WriteSnapshot(w io.Writer) error {
	if c.done {
		return errors.New("birch: WriteSnapshot after Finish")
	}
	tree := c.eng.Tree()
	cw := cf.NewWriter(w)
	cw.Bytes(snapshotMagic[:])
	cw.U8(uint8(c.cfg.Core))
	cw.U64(uint64(c.cfg.Dim))
	cw.F64(tree.Threshold())
	for _, cfs := range [][]cf.CF{tree.LeafCFs(), c.eng.Outliers()} {
		cw.U64(uint64(len(cfs)))
		for i := range cfs {
			cw.Row(&cfs[i])
		}
	}
	cw.Seal()
	return cw.Flush()
}

// ResumeSnapshot reconstructs a Clusterer from a snapshot written by
// WriteSnapshot. The provided configuration must use the snapshot's
// dimensionality and must have Refine off (summaries carry no points to
// re-scan); its InitialThreshold is raised to the snapshot's threshold
// so the restored entries are valid leaf entries. Outlier-disk entries
// are re-added after the leaves, so the resumed Clusterer holds the
// snapshot's whole point mass.
func ResumeSnapshot(r io.Reader, cfg Config) (*Clusterer, error) {
	if cfg.Refine {
		return nil, errors.New("birch: ResumeSnapshot requires Refine=false")
	}
	d := cf.NewReader(r)
	var magic [8]byte
	d.Bytes(magic[:])
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("birch: reading snapshot magic: %w", err)
	}
	snapCore, lists := cf.CoreClassic, 1
	switch magic {
	case snapshotMagic, snapshotMagicV2:
		kb := d.U8()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("birch: reading snapshot core tag: %w", err)
		}
		snapCore = cf.CoreKind(kb)
		if !snapCore.Valid() {
			return nil, fmt.Errorf("birch: unknown snapshot core kind %d", kb)
		}
		if magic == snapshotMagic {
			lists = 2
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
	dim, threshold := d.U64(), d.F64()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("birch: reading snapshot header: %w", err)
	}
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
	var points int64
	var entry uint64 // numbers leaves, then outlier entries
	for l := 0; l < lists; l++ {
		count := d.U64()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("birch: reading snapshot header: %w", err)
		}
		for i := uint64(0); i < count; i, entry = i+1, entry+1 {
			c, err := d.Row(snapCore, cfg.Dim)
			if err != nil {
				return nil, fmt.Errorf("birch: reading snapshot entry %d: %w", entry, err)
			}
			// The tree sums entry counts into its nonleaf CFs; a total past
			// int64 would wrap them negative.
			if c.N > math.MaxInt64-points {
				return nil, fmt.Errorf("birch: snapshot entry %d: total point count overflows int64", entry)
			}
			points += c.N
			if err := eng.AddCF(c); err != nil {
				return nil, err
			}
		}
	}
	if lists == 2 {
		if err := d.Check(); err != nil {
			return nil, fmt.Errorf("birch: snapshot: %w", err)
		}
	}
	return &Clusterer{cfg: cfg, eng: eng}, nil
}
