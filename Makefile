# Development and CI entry points. `make check` is the full local gate;
# CI (.github/workflows/ci.yml) runs the same targets.

GO ?= go
FUZZTIME ?= 15s

.PHONY: all build vet lint lint-escapes test test-stream test-tail test-crash race fuzz-smoke bench bench-scan bench-sparse bench-tail bench-wal bench-smoke check clean

# Randomized kill points per core cell of the crash-recovery battery;
# 52 × 2 cells ≥ the 100-kill bar CI gates on.
CRASH_TRIALS ?= 52

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# birchlint is the repo's own static-analysis suite (cmd/birchlint):
# float-equality, unclamped-sqrt, CF-mutation, block-sync, stdlib-only
# and unchecked-I/O checks plus the annotation-driven contract passes
# (hotpath, detlint, immutlint, leaklint; DESIGN.md §12). -stale also
# fails on //birchlint:ignore comments that no longer suppress anything.
# Must exit 0.
lint:
	$(GO) run ./cmd/birchlint -stale ./...

# Advisory: cross-check the compiler's escape analysis (-gcflags=-m)
# against the //birchlint:hotpath annotations. Output is compiler-
# version-sensitive, so this is not part of `check`; CI runs it in a
# separate non-gating job.
lint-escapes:
	$(GO) run ./cmd/birchlint -escapes ./...

test:
	$(GO) test ./...

# Focused race-detector run of the concurrent streaming engine's proof
# battery (stress, shutdown, differential, snapshot-immutability tests).
test-stream:
	$(GO) test -race ./internal/stream/...

# Focused race-detector run of the parallel-tail determinism battery:
# worker-sweep bit-exactness of Phase 4 assignment, parallel Lloyd, the
# closest-pair scan, and the batch serving paths.
test-tail:
	$(GO) test -race -run 'TailWorkers|TestAssign|TestCluster|ClosestLeafPairDistanceWorkers|ClassifyBatch|NearestBatch' ./internal/kmeans ./internal/cftree ./internal/core ./internal/stream

# Full crash-recovery battery (DESIGN.md §14): kill the durable engine
# at CRASH_TRIALS randomized points per core cell (the unsynced tail, or
# inside an automatic checkpoint), reopen, and assert exact CF
# conservation against an uncrashed reference; plus the automatic
# checkpoint policy and failure tests.
test-crash:
	BIRCH_CRASH_TRIALS=$(CRASH_TRIALS) $(GO) test -race -run 'TestCrash|TestAutoCheckpoint' -count=1 ./internal/stream

race: test-stream test-tail
	$(GO) test -race ./...

# Short fuzz burst over every fuzz target; catches codec and tree
# regressions without the cost of a long campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzResumeSnapshot -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzInsertInvariants -fuzztime $(FUZZTIME) ./internal/cftree
	$(GO) test -run '^$$' -fuzz FuzzScanBlockSync -fuzztime $(FUZZTIME) ./internal/cftree
	$(GO) test -run '^$$' -fuzz FuzzSparseKernelParity -fuzztime $(FUZZTIME) ./internal/cf
	$(GO) test -run '^$$' -fuzz FuzzScanLanes -fuzztime $(FUZZTIME) ./internal/cf
	$(GO) test -run '^$$' -fuzz FuzzStreamInsertClose -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/pager
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/server

# Full benchmark harness: every suite, written to the repo root as
# BENCH_scan.json, BENCH_stream.json, BENCH_tail.json, BENCH_wal.json and
# BENCH_sparse.json, all at one commit. End-to-end numbers come from
# perfbench (bash perfbench/run.sh).
bench:
	$(GO) run ./cmd/birchbench -out .

# Descent-scan workloads only: fused block scan vs the per-entry kernel
# loop on converged trees, written to BENCH_scan.json in the repo root.
bench-scan:
	$(GO) run ./cmd/birchbench -only scan -out .

# Sparse fast-path workloads only: dense fused scan vs sparse gather
# kernel on Zipfian documents across the d × density grid, the density
# sweeps pinning the cf.SparseGatherMaxDensity crossover, and the
# end-to-end dense-vs-InsertSparse tree pairs, written to
# BENCH_sparse.json in the repo root. Every dense/sparse pair is checked
# bit-identical before timing.
bench-sparse:
	$(GO) run ./cmd/birchbench -only sparse -out .

# Parallel-tail workloads only: Phase 4 refinement passes (reference vs
# chunked Assigner at 1 and 8 workers) and the classify serving path
# (brute/fused/kd/batch per-query cost), written to BENCH_tail.json in
# the repo root.
bench-tail:
	$(GO) run ./cmd/birchbench -only tail -out .

# Durability workloads only: WAL ingest overhead (off vs rotation-sync
# vs fsync-per-record) and warm-restart replay cost, written to
# BENCH_wal.json in the repo root.
bench-wal:
	$(GO) run ./cmd/birchbench -only wal -out .

# Reduced-size run for CI: runs every suite end to end, including the
# bit-parity checks and the JSON self-validation, without meaningful
# measurement time. The numbers from shared CI runners are noise; only
# the exit code matters.
bench-smoke:
	$(GO) run ./cmd/birchbench -quick -reps 1 -out $(or $(BENCH_SMOKE_DIR),/tmp/birchbench-smoke)

check: build vet lint test test-crash race fuzz-smoke

clean:
	$(GO) clean ./...
