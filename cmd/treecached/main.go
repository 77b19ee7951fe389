// Command treecached runs the tree-caching serving daemon: one
// dynamic TC shard per tenant behind the compact binary wire protocol
// (internal/wire) on -addr, with an HTTP admin plane on -admin serving
// /metrics, /healthz and /readyz.
//
//	treecached -addr :7600 -admin :7601 -state-dir /var/lib/treecached \
//	    -tree binary -nodes 1023 -tenants 4 -alpha 8 -capacity 128
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
// until a group-commit fsync (window: -fsync-interval) covers it, so
// even a hard crash loses no acknowledged batch — startup replays the
// WAL tail on top of the checkpoint through the engine's shard
// workers, under supervision like live traffic, /readyz staying 503
// until the replay completes. One fsync covers every tenant's frames
// in flight.
// Checkpoints hold the engine's verified captures, so a corrupt one is
// refused before it can replace the last good checkpoint.
// -checkpoint-interval bounds the replay by periodically checkpointing
// and truncating the log. A -state-dir written with one log per tenant
// (shard-NNNN.wal) still recovers; the next checkpoint deletes those
// logs.
package main

import (
	"context"
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
	var (
		addr      = flag.String("addr", "127.0.0.1:7600", "wire protocol listen address")
		admin     = flag.String("admin", "127.0.0.1:7601", "HTTP admin plane address (/metrics, /healthz, /readyz); empty disables")
		stateDir  = flag.String("state-dir", "", "checkpoint directory: drain snapshots land here and startup restores from it; empty disables persistence")
		walOn     = flag.Bool("wal", false, "durable write-ahead log in -state-dir: acks are withheld until fsync, kill -9 loses no acknowledged batch")
		fsyncIvl  = flag.Duration("fsync-interval", 2*time.Millisecond, "WAL group-commit window: one fsync covers all frames admitted within it (0 syncs immediately)")
		ckptIvl   = flag.Duration("checkpoint-interval", 0, "periodic background checkpoint cadence, truncating the WAL each time (0 disables; drain still checkpoints)")
		shape     = flag.String("tree", "binary", "tree shape per tenant: path|star|binary|ternary|caterpillar|random")
		nodes     = flag.Int("nodes", 1023, "tree nodes per tenant")
		tenants   = flag.Int("tenants", 4, "number of tenants (= engine shards)")
		alpha     = flag.Int64("alpha", 8, "per-node fetch/evict cost α (even integer ≥ 2)")
		capacity  = flag.Int("capacity", 128, "online cache size per tenant")
		queueLen  = flag.Int("queue", 64, "per-shard submission queue length (backpressure bound)")
		ckptEvery = flag.Int("checkpoint-every", 32, "supervision checkpoint cadence, in served messages (0 = the -queue length; negative disables journal-replay recovery)")
		quotaRate = flag.Float64("quota-rate", 0, "per-tenant admission quota, requests/second (0 disables)")
		quotaBur  = flag.Int("quota-burst", 0, "per-tenant quota burst, requests (default max(rate,1))")
		rdTimeout = flag.Duration("read-timeout", 30*time.Second, "per-connection idle/read deadline")
		wrTimeout = flag.Duration("write-timeout", 10*time.Second, "per-reply write deadline")
		seed      = flag.Int64("seed", 1, "PRNG seed for -tree random")
	)
	flag.Parse()

	trees := make([]*tree.Tree, *tenants)
	for i := range trees {
		// Per-tenant RNG streams so random trees differ across tenants
		// but stay reproducible for a given -seed.
		t, err := tree.FromShape(rand.New(rand.NewSource(*seed+int64(i))), *shape, *nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trees[i] = t
	}

	walDir := ""
	if *walOn {
		if *stateDir == "" {
			fmt.Fprintln(os.Stderr, "treecached: -wal requires -state-dir")
			os.Exit(1)
		}
		walDir = *stateDir
	}
	srv, err := server.New(server.Config{
		Addr:               *addr,
		AdminAddr:          *admin,
		StateDir:           *stateDir,
		WALDir:             walDir,
		FsyncInterval:      *fsyncIvl,
		CheckpointInterval: *ckptIvl,
		Trees:              trees,
		Alpha:              *alpha,
		Capacity:           *capacity,
		QueueLen:           *queueLen,
		CheckpointEvery:    *ckptEvery,
		Quota:              server.QuotaConfig{Rate: *quotaRate, Burst: *quotaBur},
		ReadTimeout:        *rdTimeout,
		WriteTimeout:       *wrTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("treecached: serving %d tenants on %s", *tenants, srv.Addr())
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
