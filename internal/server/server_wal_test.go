package server_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// walTestTree and the generated workload are shared by every WAL
// recovery test: deterministic Zipf batches.
func walTestTree() *tree.Tree { return tree.CompleteKary(63, 2) }

// walFleet is the two-tenant fleet of the multi-tenant WAL tests.
// Tenant 1's tree differs from tenant 0's, so a record replayed onto
// the wrong tenant cannot go unnoticed.
func walFleet() []*tree.Tree { return []*tree.Tree{walTestTree(), tree.CompleteKary(31, 2)} }

func walTestBatches(n, batchLen int) []trace.Trace { return zipfBatches(walTestTree(), 7, n, batchLen) }

// zipfBatches cuts n batches of batchLen Zipf requests over tr.
func zipfBatches(tr *tree.Tree, seed int64, n, batchLen int) []trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	input := trace.ZipfNodes(rng, tr, n*batchLen, 1.1)
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

// walFrame is one sequenced message of a tenant's stream: a serve
// batch, or a topology frame when muts is set.
type walFrame struct {
	batch trace.Trace
	muts  []trace.Mutation
}

// walFleetFrames builds n frames per tenant of walFleet: Zipf serve
// batches, with every fourth frame a topology frame attaching a fresh
// leaf that every later batch of the tenant requests.
func walFleetFrames(n, batchLen int) [][]walFrame {
	fleet := walFleet()
	out := make([][]walFrame, len(fleet))
	for i, tr := range fleet {
		batches := zipfBatches(tr, int64(7+i), n, batchLen)
		leaf := tree.None
		for j := 0; j < n; j++ {
			if j%4 == 3 {
				leaf = tree.NodeID(tr.Len() + j/4)
				out[i] = append(out[i], walFrame{muts: []trace.Mutation{trace.InsertMut(leaf, tree.NodeID(j%tr.Len()))}})
				continue
			}
			b := batches[j]
			if leaf != tree.None {
				b = append(append(trace.Trace(nil), b...), trace.Pos(leaf))
			}
			out[i] = append(out[i], walFrame{batch: b})
		}
	}
	return out
}

// frameOracle applies frames sequentially to a fresh instance over tr,
// topology frames with the algorithm's own ApplyTopology, which stops
// at the first rejected mutation just as the engine's rule does.
func frameOracle(tr *tree.Tree, frames []walFrame) *core.MutableTC {
	ref := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 16}})
	for _, f := range frames {
		if f.muts != nil {
			ref.ApplyTopology(f.muts)
			continue
		}
		ref.ServeBatch(f.batch)
	}
	return ref
}

// send drives one frame of tenant's stream to its ack.
func send(cl *client.Client, tenant int, f walFrame) error {
	if f.muts != nil {
		return cl.ApplyTopology(tenant, f.muts)
	}
	return cl.Serve(tenant, f.batch)
}

// checkRecovered fails the test unless the daemon reports tenant at
// sequence frontier lastSeq with ref's ledger, cost for cost.
func checkRecovered(t *testing.T, cl *client.Client, tenant int, lastSeq uint64, ref *core.MutableTC) {
	t.Helper()
	reply, err := cl.Stats(tenant)
	if err != nil {
		t.Fatalf("stats(%d): %v", tenant, err)
	}
	led := ref.Ledger()
	if reply.LastSeq != lastSeq || reply.Rounds != ref.Round() || reply.Serve != led.Serve ||
		reply.Move != led.Move || reply.Fetched != led.Fetched || reply.Evicted != led.Evicted {
		t.Fatalf("tenant %d recovered %+v, want LastSeq %d and sequential ledger %+v (rounds %d)",
			tenant, reply, lastSeq, led, ref.Round())
	}
}

func walServerConfig(addr, dir string) server.Config {
	return server.Config{
		Addr:            addr,
		StateDir:        dir,
		WALDir:          dir,
		FsyncInterval:   time.Millisecond,
		Trees:           []*tree.Tree{walTestTree()},
		Alpha:           4,
		Capacity:        16,
		QueueLen:        16,
		CheckpointEvery: 16,
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
	walPath := filepath.Join(dir, "treecached.wal")
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

	walPath := filepath.Join(dir, "treecached.wal")
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
		"treecache_wal_records_total{log=\"treecached.wal\"} 4",
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
// topology frame through the engine, by the rule the live daemon used:
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

// TestServerWALMultiTenantRecovery: two tenants share the one log.
// Their serve and topology frames interleave in it, a checkpoint lands
// mid-stream, and after a hard kill the restarted daemon must route
// every record back to the tenant it names: each tenant recovers its
// sequence frontier and a ledger equal to its own sequential replay.
func TestServerWALMultiTenantRecovery(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	const n, ckptAt = 24, 10
	frames := walFleetFrames(n, 16)
	cfg := walServerConfig(addr, dir)
	cfg.Trees = walFleet()

	srv := startServer(t, cfg)
	cl := client.New(client.Config{Addr: addr, Seed: 71})
	for j := 0; j < n; j++ {
		if j == ckptAt {
			if err := cl.Snapshot(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		for tenant := range frames {
			if err := send(cl, tenant, frames[tenant][j]); err != nil {
				t.Fatalf("tenant %d frame %d: %v", tenant, j, err)
			}
		}
	}
	cl.Close()
	srv.Kill()
	if logs, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(logs) != 1 || filepath.Base(logs[0]) != "treecached.wal" {
		t.Fatalf("logs on disk %v, want only treecached.wal", logs)
	}

	srv2 := startServer(t, cfg)
	defer shutdownServer(t, srv2)
	cl2 := client.New(client.Config{Addr: addr, Seed: 72})
	defer cl2.Close()
	for tenant, tr := range cfg.Trees {
		if got := srv2.Replayed(tenant); got != n-ckptAt {
			t.Fatalf("tenant %d: replayed %d records, want %d", tenant, got, n-ckptAt)
		}
		checkRecovered(t, cl2, tenant, n, frameOracle(tr, frames[tenant]))
	}
}

// TestServerCheckpointRejectsCorruptCapture: a durable checkpoint
// commits only blobs that passed the engine's verification. A corrupted
// capture must fail the TSnapshot before checkpoint.tcckpt is written
// or the log truncated, so a kill afterwards still recovers every
// acknowledged batch from the log. Committing the blob unverified
// instead would leave a checkpoint that cannot be restored, next to a
// truncated log: every acknowledged batch lost.
func TestServerCheckpointRejectsCorruptCapture(t *testing.T) {
	for _, tc := range []struct {
		name            string
		checkpointEvery int
		// corruptAt is the capture the fault corrupts, counted from
		// boot: a supervised shard takes capture 1 at construction.
		corruptAt int
	}{
		{"unsupervised", -1, 1},
		{"supervised", 64, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := reserveAddr(t)
			dir := t.TempDir()
			const nBatches = 20
			batches := walTestBatches(nBatches, 16)
			inj := faultinject.NewInjector()
			inj.Arm(faultinject.Checkpoint, tc.corruptAt)
			cfg := walServerConfig(addr, dir)
			cfg.CheckpointEvery = tc.checkpointEvery
			cfg.Wrap = func(_ int, algo server.Algo) server.Algo { return faultinject.Wrap(algo, inj) }

			srv := startServer(t, cfg)
			cl := client.New(client.Config{Addr: addr, Seed: 81})
			for i, b := range batches {
				if err := cl.Serve(0, b); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			walPath := filepath.Join(dir, "treecached.wal")
			before, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Snapshot(); err == nil {
				t.Fatal("checkpoint of a corrupted capture succeeded")
			}
			cl.Close()
			if inj.Fired(faultinject.Checkpoint) != 1 {
				t.Fatalf("corrupt-capture fault fired %d times, want 1", inj.Fired(faultinject.Checkpoint))
			}
			if _, err := os.Stat(filepath.Join(dir, "checkpoint.tcckpt")); !os.IsNotExist(err) {
				t.Fatalf("rejected checkpoint reached the disk: %v", err)
			}
			if after, err := os.Stat(walPath); err != nil || after.Size() != before.Size() {
				t.Fatalf("rejected checkpoint truncated the log: %v", err)
			}
			srv.Kill()

			cfg.Wrap = nil
			srv2 := startServer(t, cfg)
			defer shutdownServer(t, srv2)
			cl2 := client.New(client.Config{Addr: addr, Seed: 82})
			defer cl2.Close()
			checkRecovered(t, cl2, 0, nBatches, walOracle(batches, nBatches))
		})
	}
}

// TestServerWALLegacyLayout: a state dir of the per-shard layout — a
// checkpoint plus one shard-NNNN.wal per tenant, the logs holding
// records the checkpoint already covers — recovers under the one-log
// daemon. The legacy logs replay before treecached.wal, survive until a
// checkpoint supersedes them, and are deleted by it.
func TestServerWALLegacyLayout(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	fleet := walFleet()
	const n = 12
	frames := walFleetFrames(n+1, 16)
	covered := []int{5, 3} // per-tenant sequence frontier of the checkpoint

	blobs := make([][]byte, len(fleet))
	seqs := make([]uint64, len(fleet))
	var legacy []string
	for i, tr := range fleet {
		blob, err := snapshot.Capture(frameOracle(tr, frames[i][:covered[i]]))
		if err != nil {
			t.Fatal(err)
		}
		blobs[i], seqs[i] = blob, uint64(covered[i])
		// The per-shard layout's records: a kind byte (1 serve, 2
		// topology) ahead of the raw wire payload.
		var img []byte
		for j, f := range frames[i][:n] {
			var rec []byte
			if f.muts != nil {
				rec = append([]byte{2}, wire.Topo{Tenant: i, Seq: uint64(j + 1), Muts: f.muts}.Encode()...)
			} else {
				rec = append([]byte{1}, wire.Serve{Tenant: i, Seq: uint64(j + 1), Batch: f.batch}.Encode()...)
			}
			img = wal.AppendRecord(img, rec)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, path)
	}
	if err := server.WriteCheckpoint(dir, blobs, seqs); err != nil {
		t.Fatal(err)
	}
	cfg := walServerConfig(addr, dir)
	cfg.Trees = fleet

	// Life 1 recovers the legacy layout and logs one more frame per
	// tenant, into treecached.wal; life 2 must replay the legacy logs
	// first and the daemon's log after them.
	srv := startServer(t, cfg)
	cl := client.New(client.Config{Addr: addr, Seed: 91})
	for i, tr := range fleet {
		if got := srv.Replayed(i); got != int64(n-covered[i]) {
			t.Fatalf("tenant %d: replayed %d records, want %d", i, got, n-covered[i])
		}
		checkRecovered(t, cl, i, n, frameOracle(tr, frames[i][:n]))
		if err := cl.Resume(i); err != nil {
			t.Fatal(err)
		}
		if err := send(cl, i, frames[i][n]); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Kill()

	srv = startServer(t, cfg)
	cl = client.New(client.Config{Addr: addr, Seed: 92})
	for i, tr := range fleet {
		if got := srv.Replayed(i); got != int64(n+1-covered[i]) {
			t.Fatalf("restart: tenant %d replayed %d records, want %d", i, got, n+1-covered[i])
		}
		checkRecovered(t, cl, i, n+1, frameOracle(tr, frames[i]))
	}
	for _, path := range legacy {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("legacy log gone before a checkpoint superseded it: %v", err)
		}
	}
	if err := cl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, path := range legacy {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("checkpoint left the superseded %s: %v", filepath.Base(path), err)
		}
	}
	cl.Close()
	srv.Kill()

	srv = startServer(t, cfg)
	defer shutdownServer(t, srv)
	cl = client.New(client.Config{Addr: addr, Seed: 93})
	defer cl.Close()
	for i, tr := range fleet {
		checkRecovered(t, cl, i, n+1, frameOracle(tr, frames[i]))
	}
}

// TestServerStatsRoundsWithdrawn: a request to a withdrawn rule is a
// free no-op for the tenant's algorithm, not a round, and the stats
// reply counts rounds the algorithm's way both before and after a
// restart. The tenant attaches leaf 63, withdraws it, then requests
// +5, +63, +63, +7: two rounds, whichever life of the daemon answers.
func TestServerStatsRoundsWithdrawn(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	frames := []walFrame{
		{muts: []trace.Mutation{trace.InsertMut(63, 3)}},
		{muts: []trace.Mutation{trace.DeleteMut(63)}},
		{batch: trace.Trace{trace.Pos(5), trace.Pos(63), trace.Pos(63), trace.Pos(7)}},
	}
	ref := frameOracle(walTestTree(), frames)
	if ref.Round() != 2 {
		t.Fatalf("oracle Round %d, want 2", ref.Round())
	}

	srv := startServer(t, walServerConfig(addr, dir))
	cl := client.New(client.Config{Addr: addr, Seed: 53})
	for i, f := range frames {
		if err := send(cl, 0, f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	srv.Engine().Drain() // acks promise durability, not service
	checkRecovered(t, cl, 0, uint64(len(frames)), ref)
	cl.Close()
	srv.Kill()

	srv2 := startServer(t, walServerConfig(addr, dir))
	defer shutdownServer(t, srv2)
	cl2 := client.New(client.Config{Addr: addr, Seed: 54})
	defer cl2.Close()
	checkRecovered(t, cl2, 0, uint64(len(frames)), ref)
}

// TestServerCheckpointErrorsCounted: a periodic checkpoint that fails
// is counted in treecache_durable_checkpoint_errors_total instead of
// vanishing, and the log it could not truncate keeps every record. A
// directory where the checkpoint's temporary file goes makes every
// write fail, even for root.
func TestServerCheckpointErrorsCounted(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	blocker := filepath.Join(dir, "checkpoint.tcckpt.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := walServerConfig(addr, dir)
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.CheckpointInterval = 5 * time.Millisecond
	srv := startServer(t, cfg)

	const nBatches = 8
	cl := client.New(client.Config{Addr: addr, Seed: 55})
	for i, b := range walTestBatches(nBatches, 8) {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	cl.Close()
	metric := func(body, name string) string {
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == name {
				return f[1]
			}
		}
		t.Fatalf("/metrics lacks %s:\n%s", name, body)
		return ""
	}
	var body string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, body = adminGet(t, srv, "/metrics")
		if metric(body, "treecache_durable_checkpoint_errors_total") != "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no failed periodic checkpoint was counted")
		}
	}
	if got := metric(body, "treecache_durable_checkpoints_total"); got != "0" {
		t.Fatalf("%s checkpoints committed through a blocked temp file", got)
	}
	srv.Kill()

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, walServerConfig(addr, dir))
	defer shutdownServer(t, srv2)
	if got := srv2.Replayed(0); got != nBatches {
		t.Fatalf("replayed %d records, want %d: a failed checkpoint truncated the log", got, nBatches)
	}
}

// poisonAlgo panics on every batch that requests node poison: a
// deterministic fault, which supervision retries and then drops.
type poisonAlgo struct {
	server.Algo
	poison tree.NodeID
}

func (p poisonAlgo) ServeBatch(batch trace.Trace) (int64, int64) {
	for _, r := range batch {
		if r.Node == p.poison {
			panic(fmt.Sprintf("poison request for node %d", p.poison))
		}
	}
	return p.Algo.ServeBatch(batch)
}

// TestServerWALReplayPoison: recovery applies the log by the rule that
// served it live. Batch 6 of 12 is the only one to request the
// poisoned node, which a Wrap shim panics on. The live daemon
// acknowledges the batch (the ack promises durability, not service),
// and supervision retries it three times and drops it. After a hard
// kill the restarted daemon replays the log through the engine and the
// same shim, so it drops the batch again: the recovered sequence
// frontier, rounds and ledger equal the pre-kill ones, and Dropped
// reads 1 again. A replay beside the engine would apply the batch the
// live daemon never applied.
func TestServerWALReplayPoison(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	const nBatches, batchLen, poisoned = 12, 8, 5
	batches := walTestBatches(nBatches, batchLen)
	// The poisoned node is the highest one no batch requests; batch 6
	// requests it once, after its own requests.
	requested := make([]bool, walTestTree().Len())
	for _, b := range batches {
		for _, r := range b {
			requested[r.Node] = true
		}
	}
	poison := tree.None
	for v := len(requested) - 1; v >= 0 && poison == tree.None; v-- {
		if !requested[v] {
			poison = tree.NodeID(v)
		}
	}
	if poison == tree.None {
		t.Fatal("every node is requested")
	}
	batches[poisoned] = append(append(trace.Trace(nil), batches[poisoned]...), trace.Pos(poison))
	cfg := walServerConfig(addr, dir)
	cfg.Wrap = func(_ int, algo server.Algo) server.Algo { return poisonAlgo{Algo: algo, poison: poison} }

	srv := startServer(t, cfg)
	cl := client.New(client.Config{Addr: addr, Seed: 101})
	for i, b := range batches {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	srv.Engine().Drain() // acks promise durability, not service
	if st := srv.Engine().Stats(); st.Restarts != 3 || st.Dropped != 1 {
		t.Fatalf("live daemon: %d restarts, %d dropped; want 3 and 1", st.Restarts, st.Dropped)
	}
	preKill, err := cl.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Kill()

	srv2 := startServer(t, cfg)
	defer shutdownServer(t, srv2)
	if got := srv2.Replayed(0); got != nBatches {
		t.Fatalf("replayed %d records, want %d (a dropped batch is still replayed)", got, nBatches)
	}
	cl2 := client.New(client.Config{Addr: addr, Seed: 102})
	defer cl2.Close()
	reply, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.LastSeq != preKill.LastSeq || reply.Rounds != preKill.Rounds || reply.Serve != preKill.Serve ||
		reply.Move != preKill.Move || reply.Fetched != preKill.Fetched || reply.Evicted != preKill.Evicted {
		t.Fatalf("recovered %+v != pre-kill %+v", reply, preKill)
	}
	if reply.Dropped != 1 || reply.Restarts != 3 {
		t.Fatalf("recovery: %d restarts, %d dropped; want 3 and 1", reply.Restarts, reply.Dropped)
	}
	// The pre-kill state is the sequential replay without the poisoned
	// batch.
	ref := walOracle(append(append([]trace.Trace(nil), batches[:poisoned]...), batches[poisoned+1:]...), nBatches-1)
	checkRecovered(t, cl2, 0, nBatches, ref)
}

// TestServerWALReplayTransientFault: a transient fault that fires
// while the restarted daemon replays its log — a panic mid-batch,
// armed through Wrap — is recovered by supervision like a live one,
// and the recovered ledger equals the sequential oracle's.
func TestServerWALReplayTransientFault(t *testing.T) {
	addr := reserveAddr(t)
	dir := t.TempDir()
	const nBatches, batchLen = 20, 16
	batches := walTestBatches(nBatches, batchLen)
	cfg := walServerConfig(addr, dir)

	srv := startServer(t, cfg)
	cl := client.New(client.Config{Addr: addr, Seed: 111})
	for i, b := range batches {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	cl.Close()
	srv.Kill()

	// The fault fires at request 150: mid-batch in the tenth record,
	// before the shard's first periodic capture (walServerConfig's
	// cadence is 16 messages), so recovery restores the capture taken at
	// construction and replays a journal of nine records.
	inj := faultinject.NewInjector()
	inj.Arm(faultinject.ServeRequest, 150)
	cfg.Wrap = func(_ int, algo server.Algo) server.Algo { return faultinject.Wrap(algo, inj) }
	srv2 := startServer(t, cfg)
	defer shutdownServer(t, srv2)
	if inj.Fired(faultinject.ServeRequest) != 1 {
		t.Fatalf("fault fired %d times during replay, want 1", inj.Fired(faultinject.ServeRequest))
	}
	if got := srv2.Replayed(0); got != nBatches {
		t.Fatalf("replayed %d records, want %d", got, nBatches)
	}
	cl2 := client.New(client.Config{Addr: addr, Seed: 112})
	defer cl2.Close()
	reply, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Restarts != 1 || reply.Dropped != 0 {
		t.Fatalf("replay: %d restarts, %d dropped; want 1 and 0", reply.Restarts, reply.Dropped)
	}
	checkRecovered(t, cl2, 0, nBatches, walOracle(batches, nBatches))
}

// TestServerStartFailureReleases: a Start that fails after recovery
// began — here on a taken wire address, or on a log whose tenant
// skips a sequence number — stops the shard workers and closes the
// log with its syncer, so the goroutine count returns to its value
// before New, and leaves a stopped Server: Shutdown and Kill on it
// return without error or panic.
func TestServerStartFailureReleases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, dir string) (addr string)
		want  string
	}{
		{"address taken", func(t *testing.T, dir string) string {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			return ln.Addr().String()
		}, "address already in use"},
		{"sequence gap", func(t *testing.T, dir string) string {
			var img []byte
			for _, seq := range []uint64{1, 3} {
				rec := append([]byte{1}, wire.Serve{Tenant: 0, Seq: seq, Batch: trace.Trace{trace.Pos(1)}}.Encode()...)
				img = wal.AppendRecord(img, rec)
			}
			if err := os.WriteFile(filepath.Join(dir, "treecached.wal"), img, 0o644); err != nil {
				t.Fatal(err)
			}
			return reserveAddr(t)
		}, "sequence gap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			addr := tc.setup(t, dir)
			before := runtime.NumGoroutine()
			srv, err := server.New(walServerConfig(addr, dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start = %v, want an error containing %q", err, tc.want)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > before {
				t.Fatalf("%d goroutines after the failed Start, %d before New", n, before)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown after the failed Start: %v", err)
			}
			srv.Kill()
		})
	}
}
