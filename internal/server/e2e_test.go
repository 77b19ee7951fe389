package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/wire"
)

// goldenFleet is the reference fleet the golden multi-tenant churn
// trace validates against (internal/trace/testdata).
func goldenFleet() []*tree.Tree {
	return []*tree.Tree{
		tree.CompleteKary(31, 2),
		tree.Star(20),
		tree.Path(12),
		tree.Caterpillar(4, 2),
	}
}

const (
	e2eAlpha    = 4
	e2eCapacity = 8
)

func loadGolden(t *testing.T) trace.MultiTrace {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "multitenant_churn.txt"))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := trace.ReadMulti(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Validate(goldenFleet()); err != nil {
		t.Fatal(err)
	}
	return mt
}

// reserveAddr picks a free loopback port and releases it, so two
// consecutive server lives can bind the same address.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestE2EChaosDrill is the full-stack robustness drill: a daemon
// serving the golden multi-tenant churn trace to four concurrent
// clients over real TCP, while the run is peppered with
//
//   - mid-batch shard panics and a mid-churn topology panic
//     (internal/faultinject), recovered by engine supervision;
//   - killed client connections (Client.BreakConn), recovered by
//     redial + idempotent re-submission;
//   - per-tenant quota exhaustion, shed as RETRY-AFTER and absorbed by
//     client backoff;
//   - a full SIGTERM-equivalent mid-stream: graceful drain, state-dir
//     checkpoint, process "restart" (new Server on the same state
//     dir and address), clients riding through on retries.
//
// Afterwards every tenant's ledger, cache contents and topology state
// must be bit-identical to an uninterrupted sequential replay — the
// differential oracle that proves no batch was lost, duplicated, or
// half-applied anywhere in the stack.
func TestE2EChaosDrill(t *testing.T) {
	mt := loadGolden(t)
	tenants := len(goldenFleet())
	churn := mt.SplitChurn(tenants)

	addr := reserveAddr(t)
	stateDir := t.TempDir()

	// One injector per shard, shared across both server lives: a fault
	// still armed at the restart stays armed in life 2.
	injs := make([]*faultinject.Injector, tenants)
	for i := range injs {
		injs[i] = faultinject.NewInjector()
	}
	// inner[i] is shard i's live MutableTC (latest server life), for
	// the final differential against the sequential oracle.
	var innerMu sync.Mutex
	inner := make([]*core.MutableTC, tenants)

	mkServer := func() *server.Server {
		srv, err := server.New(server.Config{
			Addr:            addr,
			StateDir:        stateDir,
			Trees:           goldenFleet(),
			Alpha:           e2eAlpha,
			Capacity:        e2eCapacity,
			QueueLen:        4,
			CheckpointEvery: 4,
			Quota:           server.QuotaConfig{Rate: 2000, Burst: 16},
			Wrap: func(shard int, algo server.Algo) server.Algo {
				innerMu.Lock()
				inner[shard] = algo.(snapshot.Checkpointed).MutableTC
				innerMu.Unlock()
				return faultinject.Wrap(algo, injs[shard])
			},
		})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("server.Start: %v", err)
		}
		return srv
	}

	srv := mkServer()
	// Mid-batch panics on two shards, a mid-churn panic on a third:
	// supervision must replay each back to exactness.
	injs[0].Arm(faultinject.ServeRequest, 10)
	injs[2].Arm(faultinject.ServeRequest, 15)
	injs[1].Arm(faultinject.TopologyOp, 1)

	// halfway closes when tenant 0 is half done: the signal to restart
	// the daemon under everyone's feet.
	halfway := make(chan struct{})
	clients := make([]*client.Client, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		cl := client.New(client.Config{
			Addr:        addr,
			Timeout:     500 * time.Millisecond,
			MaxAttempts: 400,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			Seed:        int64(1000 + i),
		})
		clients[i] = cl
		wg.Add(1)
		go func(tenant int, ops trace.ChurnTrace) {
			defer wg.Done()
			defer cl.Close()
			var batch trace.Trace
			flush := func() error {
				if len(batch) == 0 {
					return nil
				}
				err := cl.Serve(tenant, batch)
				batch = batch[:0]
				return err
			}
			for k, op := range ops {
				if tenant == 0 && k == len(ops)/2 {
					close(halfway)
				}
				if tenant == 3 && k == len(ops)/3 {
					cl.BreakConn() // killed connection mid-stream
				}
				if op.IsMut {
					if err := flush(); err != nil {
						t.Errorf("tenant %d: flush before mutation: %v", tenant, err)
						return
					}
					if err := cl.ApplyTopology(tenant, []trace.Mutation{op.Mut}); err != nil {
						t.Errorf("tenant %d: mutation %d: %v", tenant, k, err)
						return
					}
					continue
				}
				batch = append(batch, op.Req)
				if len(batch) == 8 {
					if err := flush(); err != nil {
						t.Errorf("tenant %d: batch at op %d: %v", tenant, k, err)
						return
					}
				}
			}
			if err := flush(); err != nil {
				t.Errorf("tenant %d: final flush: %v", tenant, err)
			}
		}(i, churn[i])
	}

	// The restart: drain + checkpoint mid-stream, then a new server
	// life on the same state dir and address while clients retry.
	<-halfway
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("mid-stream shutdown: %v", err)
	}
	cancel()
	srv = mkServer()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Prove the faults actually happened.
	if f := injs[0].Fired(faultinject.ServeRequest) + injs[2].Fired(faultinject.ServeRequest); f != 2 {
		t.Errorf("serve-request faults fired %d times, want 2", f)
	}
	if f := injs[1].Fired(faultinject.TopologyOp); f != 1 {
		t.Errorf("topology fault fired %d times, want 1", f)
	}
	var totalRetries int64
	for _, cl := range clients {
		totalRetries += cl.Retries()
	}
	if totalRetries == 0 {
		t.Error("no client ever retried: the drill exercised nothing")
	}
	t.Logf("client retries absorbed: %d", totalRetries)

	// Wire-level stats parity: checkpoint (drains the engine), then
	// the served ledgers over the wire must match the oracle exactly.
	cl := client.New(client.Config{Addr: addr, Seed: 1})
	if err := cl.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	replies := make([]wire.StatsReply, tenants)
	for i := range replies {
		r, err := cl.Stats(i)
		if err != nil {
			t.Fatalf("stats(%d): %v", i, err)
		}
		replies[i] = r
	}
	cl.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}

	// The differential: sequential uninterrupted replay per tenant.
	fleet := goldenFleet()
	for i := 0; i < tenants; i++ {
		ref := core.NewMutable(fleet[i], core.MutableConfig{
			Config: core.Config{Alpha: e2eAlpha, Capacity: e2eCapacity},
		})
		if _, _, err := ref.ServeChurn(churn[i]); err != nil {
			t.Fatal(err)
		}
		got := inner[i]
		if got.Ledger() != ref.Ledger() {
			t.Errorf("tenant %d ledger %+v != sequential %+v", i, got.Ledger(), ref.Ledger())
		}
		if got.Round() != ref.Round() {
			t.Errorf("tenant %d rounds %d != sequential %d", i, got.Round(), ref.Round())
		}
		if got.Epoch() != ref.Epoch() || got.Pending() != ref.Pending() {
			t.Errorf("tenant %d topology (epoch %d, pending %d) != sequential (%d, %d)",
				i, got.Epoch(), got.Pending(), ref.Epoch(), ref.Pending())
		}
		gm, wm := got.CacheMembers(), ref.CacheMembers()
		if fmt.Sprint(gm) != fmt.Sprint(wm) {
			t.Errorf("tenant %d cache %v != sequential %v", i, gm, wm)
		}
		led := ref.Ledger()
		r := replies[i]
		if r.Rounds != ref.Round() || r.Serve != led.Serve || r.Move != led.Move ||
			r.Fetched != led.Fetched || r.Evicted != led.Evicted {
			t.Errorf("tenant %d wire stats %+v != sequential ledger %+v (rounds %d)", i, r, led, ref.Round())
		}
	}
}

// rawDo writes one frame and reads the reply — the raw-wire harness
// for exact protocol-semantics assertions the retrying client would
// paper over.
func rawDo(t *testing.T, conn net.Conn, typ wire.Type, payload []byte) wire.Frame {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatalf("write %v: %v", typ, err)
	}
	f, err := wire.ReadFrame(conn, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatalf("read reply to %v: %v", typ, err)
	}
	return f
}

// TestServerWireSemantics pins the per-request protocol semantics at
// the raw wire level: backpressure maps to TRetry (not drops or
// blocking), deadlines expire as TRetry, duplicate sequence numbers
// ack without re-serving, gaps and malformed requests are TError, and
// a broken frame stream closes the connection.
func TestServerWireSemantics(t *testing.T) {
	inj := faultinject.NewInjector()
	srv, err := server.New(server.Config{
		Addr:     "127.0.0.1:0",
		Trees:    []*tree.Tree{tree.CompleteKary(31, 2)},
		Alpha:    4,
		Capacity: 8,
		QueueLen: 1,
		Wrap: func(shard int, algo server.Algo) server.Algo {
			return faultinject.Wrap(algo, inj)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	batch := trace.Trace{trace.Pos(1), trace.Pos(2)}

	// Stall the worker on the first batch so the 1-slot queue backs up
	// deterministically.
	inj.Arm(faultinject.Stall, 1)
	f := rawDo(t, conn, wire.TServe, wire.Serve{Tenant: 0, Seq: 1, Batch: batch}.Encode())
	if f.Type != wire.TAck {
		t.Fatalf("seq 1: %v, want ack", f.Type)
	}
	for inj.Fired(faultinject.Stall) == 0 {
		time.Sleep(time.Millisecond) // wait until the worker holds batch 1
	}
	f = rawDo(t, conn, wire.TServe, wire.Serve{Tenant: 0, Seq: 2, Batch: batch}.Encode())
	if f.Type != wire.TAck {
		t.Fatalf("seq 2 (fills queue): %v, want ack", f.Type)
	}

	// Queue full, no deadline: non-blocking shed with a retry hint.
	f = rawDo(t, conn, wire.TServe, wire.Serve{Tenant: 0, Seq: 3, Batch: batch}.Encode())
	if f.Type != wire.TRetry {
		t.Fatalf("overload without deadline: %v, want retry", f.Type)
	}
	r, err := wire.DecodeRetry(f.Payload)
	if err != nil || r.AfterNs <= 0 {
		t.Fatalf("retry hint: %+v, %v", r, err)
	}

	// Queue full, with deadline: blocks the deadline out, then sheds.
	start := time.Now()
	f = rawDo(t, conn, wire.TServe, wire.Serve{
		Tenant: 0, Seq: 3, DeadlineNs: int64(20 * time.Millisecond), Batch: batch,
	}.Encode())
	if f.Type != wire.TRetry {
		t.Fatalf("overload with deadline: %v, want retry", f.Type)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("deadline submit returned in %v, should have waited ~20ms", waited)
	}

	// Un-stall; the shed seq 3 now goes through. From here on the
	// 1-slot queue frees only when the worker dequeues, so the serves
	// carry a deadline and wait for the slot instead of racing the
	// worker into an overload retry.
	inj.Release()
	f = rawDo(t, conn, wire.TServe, wire.Serve{
		Tenant: 0, Seq: 3, DeadlineNs: int64(2 * time.Second), Batch: batch,
	}.Encode())
	if f.Type != wire.TAck {
		t.Fatalf("seq 3 after release: %v, want ack", f.Type)
	}

	// Duplicate: acknowledged as already applied, never re-served.
	f = rawDo(t, conn, wire.TServe, wire.Serve{Tenant: 0, Seq: 2, Batch: batch}.Encode())
	ack, err := wire.DecodeAck(f.Payload)
	if f.Type != wire.TAck || err != nil || !ack.Dup {
		t.Fatalf("duplicate seq 2: type %v ack %+v err %v, want dup ack", f.Type, ack, err)
	}

	// Sequence gap, zero sequence, bad tenant: explicit errors.
	for name, m := range map[string]wire.Serve{
		"gap":        {Tenant: 0, Seq: 99, Batch: batch},
		"zero seq":   {Tenant: 0, Seq: 0, Batch: batch},
		"bad tenant": {Tenant: 7, Seq: 1, Batch: batch},
	} {
		if f = rawDo(t, conn, wire.TServe, m.Encode()); f.Type != wire.TError {
			t.Fatalf("%s: %v, want error", name, f.Type)
		}
	}

	// A decode failure is a per-request error; the connection survives.
	if f = rawDo(t, conn, wire.TServe, []byte{0xff}); f.Type != wire.TError {
		t.Fatalf("truncated payload: %v, want error", f.Type)
	}
	if f = rawDo(t, conn, wire.TServe, wire.Serve{
		Tenant: 0, Seq: 4, DeadlineNs: int64(2 * time.Second), Batch: batch,
	}.Encode()); f.Type != wire.TAck {
		t.Fatalf("after payload error: %v, want ack (connection must survive)", f.Type)
	}

	// Broken framing (bad magic) kills the connection after a best-
	// effort error reply.
	if _, err := conn.Write([]byte("XXgarbage-that-is-not-a-frame")); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(conn, wire.DefaultMaxPayload)
	if err != nil || f.Type != wire.TError {
		t.Fatalf("garbage frame: %v %v, want error reply", f.Type, err)
	}
	if _, err := wire.ReadFrame(conn, wire.DefaultMaxPayload); err == nil {
		t.Fatal("connection stayed open after broken framing")
	}
}

// TestServerOversizedFrame: a length prefix beyond the server's limit
// (wire.DefaultMaxPayload) is rejected before allocation and the
// connection is closed.
func TestServerOversizedFrame(t *testing.T) {
	srv, err := server.New(server.Config{
		Addr:     "127.0.0.1:0",
		Trees:    []*tree.Tree{tree.Path(8)},
		Alpha:    2,
		Capacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// Header claiming one byte more than the limit.
	hdr := wire.AppendFrame(nil, wire.TServe, nil)
	binary.LittleEndian.PutUint32(hdr[4:], wire.DefaultMaxPayload+1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn, wire.DefaultMaxPayload)
	if err != nil || f.Type != wire.TError {
		t.Fatalf("oversized frame: %v %v, want error reply", f.Type, err)
	}
	if _, err := wire.ReadFrame(conn, wire.DefaultMaxPayload); err == nil {
		t.Fatal("connection stayed open after oversized frame")
	}
}

// TestServerStalledFrameClaimsCostWhatArrives: a connection whose
// header claims a maximal serve payload and then sends one byte makes
// the daemon allocate about one read step, not the claimed megabyte.
// 128 such connections held open at once allocate at most
// stalledClaimBudget bytes in total, measured as the process's
// cumulative allocation across the whole exchange (an upper bound on
// the daemon's heap growth); a daemon that allocates each claim up
// front allocates 128 MiB.
func TestServerStalledFrameClaimsCostWhatArrives(t *testing.T) {
	const conns = 128
	const stalledClaimBudget = 16 << 20
	srv, err := server.New(server.Config{
		Addr:     "127.0.0.1:0",
		Trees:    []*tree.Tree{tree.Path(8)},
		Alpha:    2,
		Capacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, srv)
	claim := wire.AppendFrame(nil, wire.TServe, nil)
	binary.LittleEndian.PutUint32(claim[4:], wire.DefaultMaxPayload)
	claim = append(claim, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	open := make([]*net.TCPConn, conns)
	for i := range open {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		open[i] = c.(*net.TCPConn)
		defer open[i].Close()
		open[i].SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := open[i].Write(claim); err != nil {
			t.Fatal(err)
		}
	}
	// Half-closing makes each handler's payload read end, so once a
	// connection reads EOF its handler has allocated all it will.
	for _, c := range open {
		if err := c.CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range open {
		if _, err := io.Copy(io.Discard, c); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > stalledClaimBudget {
		t.Fatalf("%d connections claiming %d-byte payloads allocated %.1f MiB, want at most %d MiB",
			conns, wire.DefaultMaxPayload, float64(got)/(1<<20), stalledClaimBudget>>20)
	}
}

// TestServerRestoreStatsContinuity: stats served over the wire span a
// restart — the restored instance's own counters carry the
// checkpointed work, so the view is one monotone cumulative one.
func TestServerRestoreStatsContinuity(t *testing.T) {
	addr := reserveAddr(t)
	stateDir := t.TempDir()
	tr := tree.CompleteKary(63, 2)
	mk := func() *server.Server {
		srv, err := server.New(server.Config{
			Addr: addr, StateDir: stateDir,
			Trees: []*tree.Tree{tr}, Alpha: 4, Capacity: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	shutdown := func(srv *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	srv := mk()
	cl := client.New(client.Config{Addr: addr, Seed: 2})
	batch := make(trace.Trace, 32)
	for i := range batch {
		batch[i] = trace.Pos(tree.NodeID(i * 2 % 63))
	}
	if err := cl.Serve(0, batch); err != nil {
		t.Fatal(err)
	}
	shutdown(srv)

	srv = mk()
	defer shutdown(srv)
	// A fresh client process must resume numbering from the restored
	// sequence table, not restart at 1.
	cl2 := client.New(client.Config{Addr: addr, Seed: 3})
	if err := cl2.Resume(0); err != nil {
		t.Fatal(err)
	}
	before, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if before.Rounds != int64(len(batch)) {
		t.Fatalf("restored rounds %d, want %d", before.Rounds, len(batch))
	}
	if before.LastSeq != 1 {
		t.Fatalf("restored last seq %d, want 1", before.LastSeq)
	}
	if err := cl2.Serve(0, batch); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Snapshot(); err != nil { // drain so stats are final
		t.Fatal(err)
	}
	after, err := cl2.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Rounds != int64(2*len(batch)) {
		t.Fatalf("cumulative rounds %d, want %d", after.Rounds, 2*len(batch))
	}
	if after.Total() <= before.Total() {
		t.Fatalf("cumulative cost did not grow across restart: %d -> %d", before.Total(), after.Total())
	}
	cl2.Close()
}
