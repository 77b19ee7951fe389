package server_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// walTestTree and the generated workload are shared by every WAL
// recovery test: one tenant, deterministic Zipf batches.
func walTestTree() *tree.Tree { return tree.CompleteKary(63, 2) }

func walTestBatches(n, batchLen int) []trace.Trace {
	rng := rand.New(rand.NewSource(7))
	input := trace.ZipfNodes(rng, walTestTree(), n*batchLen, 1.1)
	batches := make([]trace.Trace, n)
	for i := range batches {
		batches[i] = input[i*batchLen : (i+1)*batchLen]
	}
	return batches
}

// walOracle serves the first n batches sequentially and returns the
// reference instance.
func walOracle(batches []trace.Trace, n int) *core.MutableTC {
	ref := core.NewMutable(walTestTree(), core.MutableConfig{
		Config: core.Config{Alpha: 4, Capacity: 16},
	})
	for _, b := range batches[:n] {
		for _, r := range b {
			ref.Serve(r)
		}
	}
	return ref
}

func walServerConfig(addr, dir string) server.Config {
	return server.Config{
		Addr:          addr,
		StateDir:      dir,
		WALDir:        dir,
		FsyncInterval: time.Millisecond,
		Trees:         []*tree.Tree{walTestTree()},
		Alpha:         4,
		Capacity:      16,
		QueueLen:      16,
	}
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	return srv
}

// TestServerWALKillRecovery is the in-process kill -9 drill: batches
// are acknowledged under the WAL, the daemon dies with no checkpoint
// at all, and the restarted daemon must hold every acknowledged batch
// — same sequence frontier, cost-for-cost same ledger as a sequential
// replay, applied exactly once.
func TestServerWALKillRecovery(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	const nBatches, batchLen = 40, 16
	batches := walTestBatches(nBatches, batchLen)

	srv := startServer(t, walServerConfig(addr, dir))
	cl := client.New(client.Config{Addr: addr, Seed: 11})
	for i, b := range batches {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	cl.Close()
	// Hard crash: no drain, no checkpoint, no final fsync.
	srv.Kill()
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.tcckpt")); !os.IsNotExist(err) {
		t.Fatalf("Kill checkpointed: %v", err)
	}

	srv2 := startServer(t, walServerConfig(addr, dir))
	defer shutdownServer(t, srv2)
	if got := srv2.Replayed(0); got != nBatches {
		t.Fatalf("replayed %d records, want %d", got, nBatches)
	}
	cl2 := client.New(client.Config{Addr: addr, Seed: 12})
	defer cl2.Close()
	reply, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.LastSeq != nBatches {
		t.Fatalf("recovered LastSeq %d, want %d — acknowledged batches lost", reply.LastSeq, nBatches)
	}
	ref := walOracle(batches, nBatches)
	led := ref.Ledger()
	if reply.Rounds != ref.Round() || reply.Serve != led.Serve || reply.Move != led.Move ||
		reply.Fetched != led.Fetched || reply.Evicted != led.Evicted {
		t.Fatalf("recovered ledger %+v != sequential %+v (rounds %d vs %d)", reply, led, reply.Rounds, ref.Round())
	}
	// Exactly once: a retransmission of the last batch is a duplicate,
	// not a re-serve.
	if err := cl2.Resume(0); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Serve(0, batches[nBatches-1]); err != nil {
		t.Fatal(err)
	}
	after, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if after.LastSeq != nBatches+1 {
		t.Fatalf("post-recovery serve LastSeq %d, want %d", after.LastSeq, nBatches+1)
	}
}

// TestServerWALCheckpointRotation: an on-demand checkpoint truncates
// the WAL (recovery time stays bounded), and a kill after further
// traffic recovers checkpoint + tail — replaying only the tail.
func TestServerWALCheckpointRotation(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	const nBatches, batchLen, ckptAt = 30, 16, 20
	batches := walTestBatches(nBatches, batchLen)

	srv := startServer(t, walServerConfig(addr, dir))
	cl := client.New(client.Config{Addr: addr, Seed: 21})
	for i, b := range batches[:ckptAt] {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	walPath := filepath.Join(dir, "shard-0000.wal")
	if st, err := os.Stat(walPath); err != nil || st.Size() == 0 {
		t.Fatalf("wal before checkpoint: %v, size 0", err)
	}
	if err := cl.Snapshot(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if st, err := os.Stat(walPath); err != nil || st.Size() != 0 {
		t.Fatalf("checkpoint did not truncate the wal: %v, %d bytes", err, st.Size())
	}
	for i, b := range batches[ckptAt:] {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", ckptAt+i, err)
		}
	}
	cl.Close()
	srv.Kill()

	srv2 := startServer(t, walServerConfig(addr, dir))
	defer shutdownServer(t, srv2)
	if got := srv2.Replayed(0); got != nBatches-ckptAt {
		t.Fatalf("replayed %d records, want %d (checkpoint must supersede the prefix)", got, nBatches-ckptAt)
	}
	cl2 := client.New(client.Config{Addr: addr, Seed: 22})
	defer cl2.Close()
	reply, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.LastSeq != nBatches {
		t.Fatalf("recovered LastSeq %d, want %d", reply.LastSeq, nBatches)
	}
	ref := walOracle(batches, nBatches)
	led := ref.Ledger()
	if reply.Rounds != ref.Round() || reply.Serve != led.Serve || reply.Move != led.Move {
		t.Fatalf("recovered ledger %+v != sequential %+v", reply, led)
	}
}

// TestServerWALTornTail: garbage appended to the log (a crash mid
// write(2)) truncates on recovery instead of failing startup, and the
// valid prefix survives.
func TestServerWALTornTail(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	const nBatches, batchLen = 10, 16
	batches := walTestBatches(nBatches, batchLen)

	srv := startServer(t, walServerConfig(addr, dir))
	cl := client.New(client.Config{Addr: addr, Seed: 31})
	for i, b := range batches {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	cl.Close()
	srv.Kill()

	walPath := filepath.Join(dir, "shard-0000.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0, 0, 0, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2 := startServer(t, walServerConfig(addr, dir))
	defer shutdownServer(t, srv2)
	if got := srv2.Replayed(0); got != nBatches {
		t.Fatalf("replayed %d records, want %d", got, nBatches)
	}
	cl2 := client.New(client.Config{Addr: addr, Seed: 32})
	defer cl2.Close()
	reply, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.LastSeq != nBatches {
		t.Fatalf("recovered LastSeq %d, want %d", reply.LastSeq, nBatches)
	}
}

// TestServerSnapshotAdmitNoDeadlock is the lock-order regression test:
// checkpoints (snapMu write + tenant mu) racing admissions (snapMu
// read + tenant mu) must make progress. The pre-WAL admission path
// took the tenant lock first and the checkpoint lock second — the
// opposite order of checkpoint() — so an on-demand TSnapshot racing a
// Serve could deadlock the daemon.
func TestServerSnapshotAdmitNoDeadlock(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	srv := startServer(t, walServerConfig(addr, dir))
	defer shutdownServer(t, srv)

	batches := walTestBatches(64, 8)
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := client.New(client.Config{Addr: addr, Seed: int64(40 + w), MaxAttempts: 200})
			defer cl.Close()
			for {
				n := seq.Add(1)
				if n > uint64(len(batches)) {
					return
				}
				// Each worker claims distinct sequence numbers; the
				// retrying client resolves the inevitable gaps via
				// Resume.
				if err := cl.Resume(0); err != nil {
					t.Errorf("worker %d resume: %v", w, err)
					return
				}
				if err := cl.Serve(0, batches[n%uint64(len(batches))]); err != nil {
					t.Errorf("worker %d serve: %v", w, err)
					return
				}
			}
		}(w)
	}
	snap := client.New(client.Config{Addr: addr, Seed: 49})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := snap.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); <-done; close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("admission/checkpoint deadlock: drill did not finish")
	}
	snap.Close()
}

// TestServerWALMetricsAndReadyz: the admin plane exposes the WAL
// durability families after the engine's, and /readyz answers 200 once
// recovery completed.
func TestServerWALMetricsAndReadyz(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	cfg := walServerConfig(addr, dir)
	cfg.AdminAddr = "127.0.0.1:0"
	srv := startServer(t, cfg)
	defer shutdownServer(t, srv)

	cl := client.New(client.Config{Addr: addr, Seed: 51})
	defer cl.Close()
	for i, b := range walTestBatches(4, 8) {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if code, _ := adminGet(t, srv, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after start: %d", code)
	}
	if code, _ := adminGet(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	code, body := adminGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, family := range []string{
		"treecache_wal_records_total{shard=\"0\"} 4",
		"treecache_wal_fsyncs_total",
		"treecache_wal_fsync_latency_ns_bucket",
		"treecache_wal_replayed_records",
		"treecache_durable_checkpoints_total",
		"treecache_checkpoints_total{", // the engine's per-shard supervision family
		"treecache_serve_cost_total",   // engine families still present
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", body)
	}
}

// TestServerMetricsFamiliesUnique: the daemon's /metrics concatenates
// the engine's exposition and its own durability families, and a
// Prometheus text parser rejects a second # HELP or # TYPE line for one
// family — failing the whole scrape. Every family must be declared
// exactly once with the WAL on.
func TestServerMetricsFamiliesUnique(t *testing.T) {
	addr := reserveAddr(t)
	cfg := walServerConfig(addr, t.TempDir())
	cfg.AdminAddr = "127.0.0.1:0"
	srv := startServer(t, cfg)
	defer shutdownServer(t, srv)

	cl := client.New(client.Config{Addr: addr, Seed: 52})
	defer cl.Close()
	if err := cl.Serve(0, walTestBatches(1, 8)[0]); err != nil {
		t.Fatal(err)
	}
	code, body := adminGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE") {
			seen[f[1]+" "+f[2]]++
		}
	}
	if seen["TYPE treecache_wal_records_total"] == 0 || seen["TYPE treecache_serve_cost_total"] == 0 {
		t.Fatalf("scrape lacks the WAL or engine families:\n%s", body)
	}
	for decl, n := range seen {
		if n != 1 {
			t.Errorf("# %s declared %d times", decl, n)
		}
	}
}

// adminGet fetches one admin-plane path from a started daemon.
func adminGet(t *testing.T, srv *server.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.AdminAddr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestServerWALTopologyRecovery: topology mutations ride the WAL too —
// a killed daemon recovers its mutated tree, and replay applies a
// topology frame with the live engine's rule (engine.ApplyMutations):
// the first rejected mutation drops the rest of its frame.
func TestServerWALTopologyRecovery(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	// A mutable path: grow leaves, serve them, kill, recover.
	cfg := walServerConfig(addr, dir)
	srv := startServer(t, cfg)

	cl := client.New(client.Config{Addr: addr, Seed: 61})
	batches := walTestBatches(4, 16)
	if err := cl.Serve(0, batches[0]); err != nil {
		t.Fatal(err)
	}
	// One frame: attach a fresh leaf under the root (valid), withdraw
	// a node that never existed (invalid), attach another leaf (valid,
	// but dropped with the rest of the frame).
	muts := []trace.Mutation{trace.InsertMut(63, 0), trace.DeleteMut(1000), trace.InsertMut(64, 0)}
	if err := cl.ApplyTopology(0, muts); err != nil {
		t.Fatal(err)
	}
	leafReq := trace.Trace{trace.Pos(63), trace.Pos(63)}
	if err := cl.Serve(0, leafReq); err != nil {
		t.Fatal(err)
	}
	srv.Engine().Drain()
	if st := srv.Engine().Stats(); st.TopoApplied != 1 || st.TopoErrs != 2 {
		t.Fatalf("live daemon applied %d and dropped %d mutations, want 1 and 2", st.TopoApplied, st.TopoErrs)
	}
	preKill, err := cl.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Kill()

	srv2 := startServer(t, cfg)
	defer shutdownServer(t, srv2)
	if got := srv2.Replayed(0); got != 3 {
		t.Fatalf("replayed %d records, want 3 (serve, topo, serve)", got)
	}
	cl2 := client.New(client.Config{Addr: addr, Seed: 62})
	defer cl2.Close()
	reply, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.LastSeq != preKill.LastSeq || reply.Rounds != preKill.Rounds || reply.Serve != preKill.Serve ||
		reply.Move != preKill.Move || reply.Fetched != preKill.Fetched || reply.Evicted != preKill.Evicted {
		t.Fatalf("recovered ledger %+v != pre-kill %+v", reply, preKill)
	}
	// Oracle: same stream sequentially, the frame cut at its first
	// rejected mutation.
	ref := core.NewMutable(walTestTree(), core.MutableConfig{
		Config: core.Config{Alpha: 4, Capacity: 16},
	})
	for _, r := range batches[0] {
		ref.Serve(r)
	}
	if err := ref.ApplyTopology(muts[:1]); err != nil {
		t.Fatal(err)
	}
	for _, r := range leafReq {
		ref.Serve(r)
	}
	led := ref.Ledger()
	if reply.Rounds != ref.Round() || reply.Serve != led.Serve || reply.Move != led.Move {
		t.Fatalf("recovered ledger %+v != sequential %+v", reply, led)
	}
	// The recovered tree knows the new leaf: serving it again must be
	// accepted (a daemon that lost the mutation would error).
	if err := cl2.Resume(0); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Serve(0, trace.Trace{trace.Pos(63)}); err != nil {
		t.Fatalf("serve on recovered topology: %v", err)
	}
	// Stable ids are sequential, so the next one shows how many
	// insertions replay applied: 63 only, never the dropped 64.
	shutdownServer(t, srv2)
	if next := srv2.Algorithm(0).(snapshot.Checkpointed).Dyn().NextID(); next != 64 {
		t.Fatalf("recovered next stable id %d, want 64", next)
	}
}

func shutdownServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
