// Command treecached runs the tree-caching serving daemon: one
// dynamic TC shard per tenant behind the compact binary wire protocol
// (internal/wire) on -addr, with an HTTP admin plane on -admin serving
// /metrics, /healthz and /readyz.
//
//	treecached -addr :7600 -admin :7601 -state-dir /var/lib/treecached \
//	    -tree binary -nodes 1023 -tenants 4 -alpha 8 -capacity 128
//
// The flags set only where the daemon listens and keeps its state, the
// problem it serves (trees, α, capacity) and operations (durability,
// background checkpoints, quotas). Every tuning value is the zero
// server.Config's, which server.New and engine.New fill with the
// production defaults: engine.DefaultQueueLen-message shard queues, a
// supervision capture every engine.DefaultCheckpointEvery messages,
// the server.DefaultFsyncInterval group-commit window, the
// server.DefaultReadTimeout and server.DefaultWriteTimeout deadlines,
// and frames of at most wire.DefaultMaxPayload bytes.
//
// SIGTERM or SIGINT triggers a graceful drain: the daemon stops
// accepting, finishes queued work, checkpoints every shard plus the
// client sequence table to -state-dir, and exits 0. A restart with the
// same -state-dir restores that checkpoint, so acknowledged batches
// are never lost or re-served (clients resume via the wire LastSeq).
//
// With -wal the durability promise hardens from SIGTERM to SIGKILL:
// every admitted frame is appended to one write-ahead log shared by
// every tenant (treecached.wal in -state-dir) and its ack withheld
// until a group-commit fsync covers it, so even a hard crash loses no
// acknowledged batch — startup replays the WAL tail on top of the
// checkpoint through the engine's shard workers, under supervision
// like live traffic, /readyz staying 503 until the replay completes.
// One fsync covers every tenant's frames in flight.
// Checkpoints hold the engine's verified captures, so a corrupt one is
// refused before it can replace the last good checkpoint.
// -checkpoint-interval bounds the replay by periodically checkpointing
// and truncating the log. A -state-dir written with one log per tenant
// (shard-NNNN.wal) still recovers; the next checkpoint deletes those
// logs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/tree"
)

func main() {
	cfg, err := config(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("treecached: serving %d tenants on %s", len(cfg.Trees), srv.Addr())
	if a := srv.AdminAddr(); a != "" {
		fmt.Printf(", admin on %s", a)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Println("treecached: draining")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("treecached: drained and checkpointed")
}

// config parses args with fs and builds the daemon's configuration. It
// sets deployment fields (addresses, state and log directories), the
// problem (trees, α, capacity) and operations (periodic checkpoints,
// quota); every other field keeps its zero value, which server.New and
// engine.New fill with the production defaults.
func config(fs *flag.FlagSet, args []string) (server.Config, error) {
	var (
		addr      = fs.String("addr", "127.0.0.1:7600", "wire protocol listen address")
		admin     = fs.String("admin", "127.0.0.1:7601", "HTTP admin plane address (/metrics, /healthz, /readyz); empty disables")
		stateDir  = fs.String("state-dir", "", "checkpoint directory: drain snapshots land here and startup restores from it; empty disables persistence")
		walOn     = fs.Bool("wal", false, "durable write-ahead log in -state-dir: acks are withheld until fsync, kill -9 loses no acknowledged batch")
		ckptIvl   = fs.Duration("checkpoint-interval", 0, "periodic background checkpoint cadence, truncating the WAL each time (0 disables; drain still checkpoints)")
		shape     = fs.String("tree", "binary", "tree shape per tenant: path|star|binary|ternary|caterpillar|random")
		nodes     = fs.Int("nodes", 1023, "tree nodes per tenant")
		tenants   = fs.Int("tenants", 4, "number of tenants (= engine shards)")
		alpha     = fs.Int64("alpha", 8, "per-node fetch/evict cost α (even integer ≥ 2)")
		capacity  = fs.Int("capacity", 128, "online cache size per tenant")
		quotaRate = fs.Float64("quota-rate", 0, "per-tenant admission quota, requests/second (0 disables)")
		quotaBur  = fs.Int("quota-burst", 0, "per-tenant quota burst, requests (default max(rate,1))")
		seed      = fs.Int64("seed", 1, "PRNG seed for -tree random")
	)
	if err := fs.Parse(args); err != nil {
		return server.Config{}, err
	}
	if *tenants < 1 {
		return server.Config{}, fmt.Errorf("treecached: -tenants must be at least 1, got %d", *tenants)
	}
	trees := make([]*tree.Tree, *tenants)
	for i := range trees {
		// Per-tenant RNG streams so random trees differ across tenants
		// but stay reproducible for a given -seed.
		t, err := tree.FromShape(rand.New(rand.NewSource(*seed+int64(i))), *shape, *nodes)
		if err != nil {
			return server.Config{}, err
		}
		trees[i] = t
	}
	cfg := server.Config{
		Addr:               *addr,
		AdminAddr:          *admin,
		StateDir:           *stateDir,
		CheckpointInterval: *ckptIvl,
		Trees:              trees,
		Alpha:              *alpha,
		Capacity:           *capacity,
		Quota:              server.QuotaConfig{Rate: *quotaRate, Burst: *quotaBur},
	}
	if *walOn {
		if *stateDir == "" {
			return server.Config{}, errors.New("treecached: -wal requires -state-dir")
		}
		cfg.WALDir = *stateDir
	}
	return cfg, nil
}
