// Command birchd is the BIRCH serving daemon: an HTTP server over the
// streaming engine (internal/stream) with micro-batched admission
// (internal/server). It runs in three modes:
//
//   - serve (default): a standalone engine with -shards in-process
//     shard workers. The general single-box deployment.
//   - shard: one shard of a -fleet W deployment — a single-shard engine
//     configured exactly like shard i of an in-process W-shard engine
//     (memory split W ways, refinement/outliers/delayed splits off), so
//     a coordinator merging W such daemons reproduces the in-process
//     result bit for bit.
//   - coordinator: no local engine; inserts fan out round-robin across
//     -peers and the serving snapshot is merged from their CF summaries
//     via the CF Additivity Theorem.
//
// Endpoints (JSON, or the binary frame tier via Content-Type
// application/x-birch-frame on the batch paths): POST /insert,
// /insert-batch, /classify, /classify-batch, /flush; GET /snapshot,
// /summary, /stats, /healthz.
//
// SIGINT/SIGTERM drain gracefully: the listener stops, in-flight and
// queued inserts are folded into the engine, a final snapshot is
// published (and, with -store, checkpointed), then the process exits.
// Every insert that was acked with a 200 is covered by that snapshot.
// With -store each shard also checkpoints on its own as its WAL grows,
// so a crash replays a bounded tail rather than the whole run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/server"
	"birch/internal/stream"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "birchd:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing: it serves until ctx is done
// (SIGINT/SIGTERM in main, a plain cancel in tests), then drains. If
// ready is non-nil it receives the bound address once the daemon is
// listening — tests bind to :0 and connect through this.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("birchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr  = fs.String("addr", "127.0.0.1:7461", "listen address")
		mode  = fs.String("mode", "serve", "serve | shard | coordinator")
		peers = fs.String("peers", "", "comma-separated peer base URLs (coordinator mode)")

		dim      = fs.Int("dim", 2, "data dimensionality")
		k        = fs.Int("k", 8, "global cluster count K")
		memory   = fs.Int("memory", 0, "CF-tree memory budget in bytes (0 = default)")
		coreKind = fs.String("core", "classic", "CF statistic core: classic | betula")
		t0       = fs.Float64("t0", 0, "initial threshold T0")
		shards   = fs.Int("shards", 1, "in-process shard workers (serve mode)")
		fleet    = fs.Int("fleet", 1, "total fleet width W this daemon is one shard of (shard mode)")
		compact  = fs.Duration("compact", 500*time.Millisecond, "background compaction period (0 = flush-only)")
		store    = fs.String("store", "", "durable store directory: WAL + shard checkpoints, taken automatically as the WAL grows and at shutdown (empty = in-memory)")

		refresh = fs.Duration("refresh", time.Second, "coordinator snapshot refresh period")

		batchMax  = fs.Int("batch-max", 64, "micro-batch flush size in points")
		batchWait = fs.Duration("batch-wait", 200*time.Microsecond, "micro-batch flush deadline")
		queue     = fs.Int("queue", 256, "admission queue depth in requests (full = 429)")
		workers   = fs.Int("classify-workers", 1, "worker fan-out per coalesced classify batch")
		drain     = fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := cf.ParseCoreKind(*coreKind)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(*dim, *k)
	cfg.Core = kind
	cfg.InitialThreshold = *t0
	if *memory > 0 {
		cfg.Memory = *memory
	}

	backend, recovery, err := buildBackend(cfg, *mode, *peers, *shards, *fleet, *compact, *refresh, *store)
	if err != nil {
		return err
	}
	if recovery != nil && recovery.Recovered {
		fmt.Fprintf(stdout, "birchd: warm restart: %d points restored (%d replayed from WAL, %d torn tails)\n",
			recovery.Points, recovery.ReplayedPoints, recovery.TornTails)
	}

	srv := server.New(backend, server.Options{
		MaxBatch:        *batchMax,
		BatchWait:       *batchWait,
		QueueDepth:      *queue,
		ClassifyWorkers: *workers,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		// The collectors and backend are already running; shut them down
		// rather than leaking them on a bind failure.
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		_ = srv.Shutdown(sctx)
		return err
	}
	fmt.Fprintf(stdout, "birchd: %s mode, serving on http://%s\n", *mode, l.Addr())
	if ready != nil {
		ready <- l.Addr().String()
	}

	served := make(chan error, 1)
	go func(out chan<- error) { out <- srv.Serve(l) }(served)

	select {
	case err := <-served:
		// Serve failing before a signal is a hard error; drain what we can.
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		_ = srv.Shutdown(sctx)
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "birchd: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "birchd: drained, bye")
	return nil
}

// buildBackend assembles the Backend for the requested mode.
func buildBackend(cfg core.Config, mode, peers string, shards, fleet int,
	compact, refresh time.Duration, store string) (server.Backend, *stream.RecoveryStats, error) {
	switch mode {
	case "serve", "shard":
		engCfg := cfg
		engShards := shards
		if mode == "shard" {
			if fleet < 1 {
				return nil, nil, fmt.Errorf("shard mode needs -fleet >= 1, got %d", fleet)
			}
			// Exactly the per-shard configuration an in-process W-shard
			// engine would run, so W such daemons merge bit-identically.
			engCfg = stream.ShardEngineConfig(cfg, fleet)
			engShards = 1
		}
		opts := stream.Options{Shards: engShards, CompactInterval: compact}
		var dur *stream.DurableOptions
		if store != "" {
			if err := os.MkdirAll(store, 0o755); err != nil {
				return nil, nil, err
			}
			dur = &stream.DurableOptions{FS: pager.DirFS(store)}
		}
		eng, rec, err := stream.Open(engCfg, opts, dur)
		if err != nil {
			return nil, nil, err
		}
		return server.EngineBackend{Eng: eng, Cfg: engCfg}, rec, nil
	case "coordinator":
		urls := splitPeers(peers)
		if len(urls) == 0 {
			return nil, nil, errors.New("coordinator mode needs -peers")
		}
		c, err := server.NewCoordinator(cfg, urls, refresh)
		if err != nil {
			return nil, nil, err
		}
		return c, nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown -mode %q (serve | shard | coordinator)", mode)
	}
}

func splitPeers(s string) []string {
	var urls []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}
