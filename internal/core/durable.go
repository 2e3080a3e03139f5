package core

// Engine checkpointing: the full durable state of a mid-run Phase 1
// engine. A CF tree alone is not enough for a warm restart whose future
// behaviour matches the uncrashed run bit-for-bit — the threshold
// estimator's rebuild history steers every future threshold choice, the
// outlier buffer holds spilled mass the final re-absorption pass must
// see, and the pager's disk accounting decides when the next spill hits
// ErrDiskFull. WriteCheckpoint captures all of it; ResumeEngine restores
// an engine that continues exactly where the checkpointed one stopped.
//
// Layout: a small engine section (estimator history, monotone counters,
// pager stats, outlier CFs), one CRC-32C section of the internal/cf
// codec, followed by the CF-tree checkpoint image (internal/cftree,
// self-validating). Both go through one cf.Writer and one cf.Reader.
// The tree image is deliberately last: the reader buffers, so a caller
// that hands ResumeEngine a plain io.Reader must put nothing after it.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"birch/internal/cf"
	"birch/internal/cftree"
	"birch/internal/pager"
)

// engineMagic identifies an engine checkpoint, version 1.
var engineMagic = [8]byte{'B', 'I', 'R', 'C', 'H', 'E', 'G', '1'}

// engineMaxCount bounds history and outlier counts read from disk.
const engineMaxCount = 1 << 24

// ErrEngineCheckpointCorrupt is wrapped by ResumeEngine errors caused by
// a damaged engine section (the tree image reports its own corruption
// via cftree.ErrCheckpointCorrupt).
var ErrEngineCheckpointCorrupt = errors.New("core: engine checkpoint corrupt")

// WriteCheckpoint serializes the engine's complete durable state. It is
// only valid before FinishPhase1: a finished engine has discarded its
// outlier buffer and ended its data pass, so there is nothing left to
// resume into. w may be a *cf.Writer carrying earlier sections of the
// same record.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	if e.finished {
		return errors.New("core: WriteCheckpoint after FinishPhase1")
	}
	cw := cf.NewWriter(w)
	cw.Bytes(engineMagic[:])
	cw.U32(uint32(e.cfg.Dim))
	cw.U32(uint32(e.cfg.Core))

	// Threshold estimator: totalN plus the rebuild history pairs.
	cw.I64(e.est.totalN)
	cw.U32(uint32(len(e.est.histN)))
	for i := range e.est.histN {
		cw.F64(e.est.histN[i])
		cw.F64(e.est.histT[i])
	}

	// Monotone counters, then the pager accounting.
	st := e.pgr.Stats()
	for _, v := range []int64{
		e.scanned.Load(), e.spills.Load(), e.rebuilds.Load(), e.discarded.Load(),
		int64(e.pgr.DiskUsed()),
		st.PagesAllocated, st.PagesFreed, st.PageWrites, st.PageReads,
		st.OutliersWritten, st.OutliersRead, st.Rebuilds, st.DatasetScans,
	} {
		cw.I64(v)
	}

	// Outlier buffer (the simulated outlier disk's contents).
	cw.U32(uint32(len(e.outlierBuf)))
	for i := range e.outlierBuf {
		cw.Row(&e.outlierBuf[i])
	}
	cw.Seal()
	return e.tree.WriteCheckpoint(cw)
}

// ResumeEngine reconstructs an engine from a WriteCheckpoint stream
// under cfg, which must carry the same identity (Dim, Core, Metric,
// ThresholdKind, Memory/PageSize shape) the checkpoint was written
// under. The resumed engine's future behaviour — threshold escalation,
// spills, rebuilds, the final outlier resolution — is bit-identical to
// the checkpointed engine's. r may be a *cf.Reader positioned at the
// engine section.
func ResumeEngine(r io.Reader, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cf.NewReader(r)
	corrupt := func(err error) error { return fmt.Errorf("%w: %v", ErrEngineCheckpointCorrupt, err) }

	var magic [8]byte
	d.Bytes(magic[:])
	dim, kind := d.U32(), cf.CoreKind(d.U32())
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	if magic != engineMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrEngineCheckpointCorrupt)
	}
	if int(dim) != cfg.Dim {
		return nil, fmt.Errorf("core: checkpoint dimension %d, config dimension %d", dim, cfg.Dim)
	}
	if kind != cfg.Core {
		return nil, fmt.Errorf("core: checkpoint core %v, config core %v", kind, cfg.Core)
	}

	est := thresholdEstimator{dim: cfg.Dim, totalN: d.I64()}
	histLen := d.U32()
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	if histLen > engineMaxCount {
		return nil, fmt.Errorf("%w: implausible history length %d", ErrEngineCheckpointCorrupt, histLen)
	}
	for i := uint32(0); i < histLen && d.Err() == nil; i++ {
		est.histN = append(est.histN, d.F64())
		est.histT = append(est.histT, d.F64())
	}

	var counters [4]int64
	for i := range counters {
		counters[i] = d.I64()
	}
	diskUsed := d.I64()
	var pst pager.Stats
	for _, dst := range []*int64{
		&pst.PagesAllocated, &pst.PagesFreed, &pst.PageWrites, &pst.PageReads,
		&pst.OutliersWritten, &pst.OutliersRead, &pst.Rebuilds, &pst.DatasetScans,
	} {
		*dst = d.I64()
	}

	outCount := d.U32()
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	if outCount > engineMaxCount {
		return nil, fmt.Errorf("%w: implausible outlier count %d", ErrEngineCheckpointCorrupt, outCount)
	}
	var outliers []cf.CF
	for i := uint32(0); i < outCount; i++ {
		entry, err := d.Row(cfg.Core, cfg.Dim)
		if err != nil {
			return nil, corrupt(err)
		}
		outliers = append(outliers, entry)
	}
	if err := d.Check(); err != nil {
		return nil, corrupt(err)
	}

	// The outlier buffer and the disk accounting must agree: every
	// buffered entry holds exactly one reserved slot.
	if int(diskUsed) != len(outliers)*pager.OutlierEntrySize(cfg.Dim) {
		return nil, fmt.Errorf("%w: disk accounting (%d bytes) does not match %d buffered outliers",
			ErrEngineCheckpointCorrupt, diskUsed, len(outliers))
	}

	pgr, err := pager.New(pagerConfig(cfg))
	if err != nil {
		return nil, err
	}
	tree, err := cftree.ReadCheckpoint(d, treeParams(cfg), pgr)
	if err != nil {
		return nil, err
	}
	pgr.RestoreStats(pst, int(diskUsed))

	e := &Engine{
		cfg:        cfg,
		pgr:        pgr,
		tree:       tree,
		est:        est,
		outlierBuf: outliers,
		scratch:    cf.NewCore(cfg.Dim, cfg.Core),
		started:    time.Now(),
	}
	e.scanned.Store(counters[0])
	e.spills.Store(counters[1])
	e.rebuilds.Store(counters[2])
	e.discarded.Store(counters[3])
	return e, nil
}
