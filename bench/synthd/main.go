// Command synthd is the benchmark's synthetic landscape daemon: the
// serving path of cmd/landscaped (stream.New or shard.New behind
// httpapi.New, listener first, recovery off the serving goroutine) with
// the synthetic enricher in place of the scenario's sandbox and AV
// oracle. It receives events over HTTP and never the benchmark seed.
//
// The flags mirror landscaped's and keep its defaults. This glue
// duplicates landscaped's serve path and goes away once landscaped can
// host a synthetic enricher.
//
// Usage:
//
//	synthd [-addr 127.0.0.1:8844] [-epoch 256] [-queue 16] [-shards 1]
//	       [-wal-dir DIR] [-checkpoint-every 64] [-wal-nosync]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/synth"
	"repro/internal/httpapi"
	"repro/internal/stream"
)

func main() {
	addr := flag.String("addr", ":8844", "listen address")
	epoch := flag.Int("epoch", 256, "pending-pool size that triggers a re-clustering epoch (0 = only on flush)")
	queue := flag.Int("queue", 16, "ingest queue depth, in batches")
	shards := flag.Int("shards", 1, "horizontal shard count (1 = unsharded)")
	walDir := flag.String("wal-dir", "", "durability directory (empty = memory-only)")
	ckptEvery := flag.Int("checkpoint-every", 64, "checkpoint after every N applied batches (0 = only on /v1/checkpoint)")
	noSync := flag.Bool("wal-nosync", false, "skip fsyncs on the WAL and checkpoints")
	flag.Parse()

	cfg := stream.DefaultConfig()
	cfg.EpochSize, cfg.QueueDepth = *epoch, *queue
	if *walDir != "" {
		cfg.Durability = stream.Durability{Dir: *walDir, CheckpointEvery: *ckptEvery, NoSync: *noSync}
	}
	if err := serve(cfg, *shards, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "synthd:", err)
		os.Exit(1)
	}
}

// serve hosts the backend until SIGINT/SIGTERM. /readyz answers 503
// until recovery has built the backend.
func serve(cfg stream.Config, shards int, addr string) error {
	var bp atomic.Value
	load := func() synth.Backend {
		if v := bp.Load(); v != nil {
			return v.(synth.Backend)
		}
		return nil
	}
	server := &http.Server{
		Handler: httpapi.New(func() httpapi.Backend {
			if b := load(); b != nil {
				return b
			}
			return nil
		}, httpapi.Options{}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	initErr := make(chan error, 1)
	go func() {
		b, err := synth.OpenBackend(cfg, shards, synth.Enricher{})
		if err == nil {
			bp.Store(b)
		}
		initErr <- err
	}()

	select {
	case err := <-serveErr:
		return err
	case err := <-initErr:
		if err != nil {
			server.Close()
			return fmt.Errorf("startup: %w", err)
		}
		select {
		case err := <-serveErr:
			load().Close()
			return err
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = server.Shutdown(shutdownCtx)
	if b := load(); b != nil {
		b.Close()
	}
	return err
}
