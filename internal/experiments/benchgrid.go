package experiments

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Bench is one row of the benchmark table. The table is the single
// source of truth shared by the repo-root Benchmark* functions and the
// cmd/experiments -bench-json recorder, so the recorded BENCH_core.json
// trajectory always measures exactly the workloads CI smokes.
//
// Run is a func(*testing.B) because testing.Benchmark, which the
// recorder calls outside any test binary, takes one; that is why this
// non-test package imports testing.
type Bench struct {
	Name string // "<Group>/<param>", e.g. "TCStar/n=1024"
	Run  func(*testing.B)
	// Goroutines marks rows that start goroutines (engine workers,
	// wire clients): they are only interpretable next to GOMAXPROCS, so
	// the recorder's -bench-cpus sweeps them.
	Goroutines bool
}

// Benches returns the benchmark table. ns/op is per request served (per
// operation on the churn rows, mutations included). Alpha is 8 and the
// capacity half the node count on every row.
func Benches() []Bench {
	return []Bench{
		// E3 / Theorem 6.1: per-request decision cost by shape and
		// size. Stars (h=1, huge degree), paths (h=n−1) up to
		// trie-chain depths, complete binary trees, fixed-size trees of
		// growing fanout, and the deep shapes the heavy-path serve core
		// targets: an 8192-node spine with one leg per spine node (the
		// FIB-trie-chain worst case with decoys), and a depth-biased
		// random recursive tree (deterministic seed).
		{Name: "TCStar/n=1024", Run: serveBench(func() *tree.Tree { return tree.Star(1 << 10) })},
		{Name: "TCStar/n=16384", Run: serveBench(func() *tree.Tree { return tree.Star(1 << 14) })},
		{Name: "TCStar/n=262144", Run: serveBench(func() *tree.Tree { return tree.Star(1 << 18) })},
		{Name: "TCPath/n=256", Run: serveBench(func() *tree.Tree { return tree.Path(1 << 8) })},
		{Name: "TCPath/n=1024", Run: serveBench(func() *tree.Tree { return tree.Path(1 << 10) })},
		{Name: "TCPath/n=4096", Run: serveBench(func() *tree.Tree { return tree.Path(1 << 12) })},
		{Name: "TCPath/n=16384", Run: serveBench(func() *tree.Tree { return tree.Path(1 << 14) })},
		{Name: "TCPath/n=65536", Run: serveBench(func() *tree.Tree { return tree.Path(1 << 16) })},
		{Name: "TCBinary/n=1024", Run: serveBench(func() *tree.Tree { return tree.CompleteKary(1<<10, 2) })},
		{Name: "TCBinary/n=16384", Run: serveBench(benchTree)},
		{Name: "TCBinary/n=262144", Run: serveBench(func() *tree.Tree { return tree.CompleteKary(1<<18, 2) })},
		{Name: "TCWideFanout/deg=4", Run: serveBench(func() *tree.Tree { return tree.CompleteKary(1<<14, 4) })},
		{Name: "TCWideFanout/deg=64", Run: serveBench(func() *tree.Tree { return tree.CompleteKary(1<<14, 64) })},
		{Name: "TCWideFanout/deg=1024", Run: serveBench(func() *tree.Tree { return tree.CompleteKary(1<<14, 1024) })},
		{Name: "TCCaterpillar/n=16384", Run: serveBench(func() *tree.Tree { return tree.Caterpillar(1<<13, 1) })},
		{Name: "TCDeepRandom/n=16384", Run: serveBench(func() *tree.Tree {
			return tree.Random(rand.New(rand.NewSource(42)), 1<<14, 3)
		})},

		// Batched serving on correlated bursts through TC.ServeBatch.
		// TCBurstSeq replays the run=64 trace per request, so the JSON
		// carries the before/after pair; the in-process
		// BenchmarkServeBatch/BenchmarkServeBatchOracle pair in
		// internal/core is the authoritative delta.
		{Name: "TCBurst/run=8", Run: burstBench(8, true)},
		{Name: "TCBurst/run=64", Run: burstBench(64, true)},
		{Name: "TCBurst/run=512", Run: burstBench(512, true)},
		{Name: "TCBurstSeq/run=64", Run: burstBench(64, false)},

		// Dynamic topology: one announce/withdraw mutation every rate
		// operations through a MutableTC, so rate=1 is pure mutation
		// throughput and rate=256 serving with background churn. The
		// in-process BenchmarkChurnMutation pair in internal/core is
		// the authoritative sublinearity evidence.
		{Name: "TCChurn/rate=1", Run: churnBench(1)},
		{Name: "TCChurn/rate=16", Run: churnBench(16)},
		{Name: "TCChurn/rate=256", Run: churnBench(256)},

		// One supervision window per op: serve the next 2048 requests
		// (fib-small's window, 32 frames of 64), then take one
		// checkpoint as the engine does (Snapshot + VerifySnapshot), of
		// the same algorithm state with and without 65,536 withdrawn ids
		// in the id space; the pair prices what a capture pays for ids
		// that no longer exist. The capture=0 control makes a capture's
		// cost a same-process subtraction.
		{Name: "Checkpoint/withdrawn=0", Run: checkpointBench(0, true)},
		{Name: "Checkpoint/withdrawn=65536", Run: checkpointBench(1<<16, true)},
		{Name: "Checkpoint/withdrawn=0/capture=0", Run: checkpointBench(0, false)},

		// The sharded engine: 4 shards with one ApplyTopology message
		// (one mutation per 16 requests) between a shard's batches;
		// then fleet throughput at growing shard counts, directly
		// comparable to the single-instance TCBinary/n=16384 row; then
		// bursty traffic, showing how much of the ServeBatch
		// amortization survives dispatch.
		{Name: "EngineChurn/shards=4", Run: engineChurnBench(4, 16), Goroutines: true},
		{Name: "EngineFleet/shards=1", Run: fleetBench(1, 0), Goroutines: true},
		{Name: "EngineFleet/shards=2", Run: fleetBench(2, 0), Goroutines: true},
		{Name: "EngineFleet/shards=4", Run: fleetBench(4, 0), Goroutines: true},
		{Name: "EngineFleet/shards=8", Run: fleetBench(8, 0), Goroutines: true},
		{Name: "EngineBurst/run=8", Run: fleetBench(4, 8), Goroutines: true},
		{Name: "EngineBurst/run=64", Run: fleetBench(4, 64), Goroutines: true},
		{Name: "EngineBurst/run=512", Run: fleetBench(4, 512), Goroutines: true},

		// The treecached daemon over loopback TCP, one tenant shard
		// per client. clients=4 against clients=1 shows how much shard
		// parallelism survives the wire; wal=1 against its in-memory
		// twin prices the durability tax of "ack means on disk".
		{Name: "DaemonLoopback/clients=1", Run: daemonBench(1, false), Goroutines: true},
		{Name: "DaemonLoopback/clients=4", Run: daemonBench(4, false), Goroutines: true},
		{Name: "DaemonLoopback/clients=1/wal=1", Run: daemonBench(1, true), Goroutines: true},
		{Name: "DaemonLoopback/clients=4/wal=1", Run: daemonBench(4, true), Goroutines: true},
	}
}

// benchTree is the TCBinary/n=16384 tree that every row past the shape
// grid serves, so those rows differ only in the layer they add.
func benchTree() *tree.Tree { return tree.CompleteKary(1<<14, 2) }

// benchBatch is the request count per batch of the batched rows.
const benchBatch = 1024

// serveBench serves a RandomMixed trace over the built tree one request
// at a time through core.TC.Serve.
func serveBench(build func() *tree.Tree) func(*testing.B) {
	return func(b *testing.B) {
		t := build()
		rng := rand.New(rand.NewSource(1))
		input := trace.RandomMixed(rng, t, 1<<16)
		tc := core.New(t, core.Config{Alpha: 8, Capacity: t.Len() / 2})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tc.Serve(input[i&(1<<16-1)])
		}
	}
}

// burstBench serves b.N requests of a deterministic bursty trace in
// pre-chunked batches, via ServeBatch when batched, else per request.
func burstBench(runLen int, batched bool) func(*testing.B) {
	return func(b *testing.B) {
		t := benchTree()
		rng := rand.New(rand.NewSource(11))
		input := trace.Bursts(rng, t, trace.BurstsConfig{
			Rounds: 1 << 16, RunLen: runLen, ZipfS: 1.1, NegFrac: 0.5,
		})
		tc := core.New(t, core.Config{Alpha: 8, Capacity: t.Len() / 2})
		b.ReportAllocs()
		b.ResetTimer()
		for served := 0; served < b.N; {
			lo := served & (1<<16 - 1)
			hi := lo + benchBatch
			if hi > len(input) {
				hi = len(input)
			}
			if hi-lo > b.N-served {
				hi = lo + (b.N - served)
			}
			chunk := input[lo:hi]
			if batched {
				tc.ServeBatch(chunk)
			} else {
				for _, req := range chunk {
					tc.Serve(req)
				}
			}
			served += len(chunk)
		}
	}
}

// churnMutator generates the net-zero mutation schedule of the churn
// rows: odd mutations insert a leaf under a rotating seed node, even
// mutations withdraw the most recently inserted live leaf (ids are
// sequential and never reused, so the driver can predict them — the
// engine rows rely on exactly this to address ApplyTopology messages).
type churnMutator struct {
	n     int
	next  tree.NodeID
	stack []tree.NodeID
	step  int
}

func newChurnMutator(t *tree.Tree) *churnMutator {
	return &churnMutator{n: t.Len(), next: tree.NodeID(t.Len())}
}

func (cm *churnMutator) mutation() trace.Mutation {
	cm.step++
	if len(cm.stack) == 0 || cm.step%2 == 1 {
		parent := tree.NodeID(1 + (cm.step*2654435761)%(cm.n-1))
		m := trace.InsertMut(cm.next, parent)
		cm.stack = append(cm.stack, cm.next)
		cm.next++
		return m
	}
	v := cm.stack[len(cm.stack)-1]
	cm.stack = cm.stack[:len(cm.stack)-1]
	return trace.DeleteMut(v)
}

// churnBench runs b.N operations on one MutableTC, every rate-th a
// topology mutation.
func churnBench(rate int) func(*testing.B) {
	return func(b *testing.B) {
		t := benchTree()
		rng := rand.New(rand.NewSource(17))
		input := trace.RandomMixed(rng, t, 1<<16)
		m := core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: 8, Capacity: t.Len() / 2}})
		cm := newChurnMutator(t)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%rate == 0 {
				if err := m.Apply(cm.mutation()); err != nil {
					b.Fatal(err)
				}
				continue
			}
			m.Serve(input[i&(1<<16-1)])
		}
	}
}

// checkpointWindow is the requests one Checkpoint row op serves: the
// requests between two supervision captures on fib-small.
const checkpointWindow = 2048

// checkpointBench times one supervision window per op on a MutableTC
// over benchTree: ServeBatch the next checkpointWindow requests of a
// RandomMixed trace, then, when capture is set, Snapshot +
// VerifySnapshot. Captures cost what changed since the previous one,
// so each op serves before it captures. The instance first announces
// and withdraws withdrawn leaves (the churn rows' schedule) and
// rebuilds, which grows only its id space and epoch, serves a warm-up
// trace and takes its first (full) capture untimed, so every row times
// the same algorithm states. A capturing row reports its last blob's
// size as blob-B, the yardstick for B/op.
func checkpointBench(withdrawn int, capture bool) func(*testing.B) {
	return func(b *testing.B) {
		t := benchTree()
		m := core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: 8, Capacity: t.Len() / 2}})
		cm := newChurnMutator(t)
		for i := 0; i < 2*withdrawn; i++ {
			if err := m.Apply(cm.mutation()); err != nil {
				b.Fatal(err)
			}
		}
		m.Rebuild()
		m.ServeBatch(trace.RandomMixed(rand.New(rand.NewSource(1)), t, 1<<16))
		input := trace.RandomMixed(rand.New(rand.NewSource(2)), t, 1<<16)
		ck := snapshot.Checkpointed{MutableTC: m}
		blob, err := ck.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * checkpointWindow) & (len(input) - 1)
			m.ServeBatch(input[lo : lo+checkpointWindow])
			if !capture {
				continue
			}
			if blob, err = ck.Snapshot(); err != nil {
				b.Fatal(err)
			}
			if err := ck.VerifySnapshot(blob); err != nil {
				b.Fatal(err)
			}
		}
		if capture {
			b.ReportMetric(float64(len(blob)), "blob-B")
		}
	}
}

// engineChurnBench submits b.N requests round-robin across a MutableTC
// fleet in pre-chunked batches, with one ApplyTopology control message
// (benchBatch/rate mutations) before each batch.
func engineChurnBench(shards, rate int) func(*testing.B) {
	return func(b *testing.B) {
		t := benchTree()
		inputs := make([]trace.Trace, shards)
		for s := range inputs {
			inputs[s] = trace.RandomMixed(rand.New(rand.NewSource(int64(1+s))), t, 1<<16)
		}
		muts := make([]*churnMutator, shards)
		for s := range muts {
			muts[s] = newChurnMutator(t)
		}
		e := engine.New(engine.Config{
			Shards: shards,
			NewShard: func(i int) engine.Algorithm {
				return core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: 8, Capacity: t.Len() / 2}})
			},
		})
		defer e.Close()
		perMsg := benchBatch / rate
		b.ReportAllocs()
		b.ResetTimer()
		remaining := b.N
		for i := 0; remaining > 0; i++ {
			for s := 0; s < shards && remaining > 0; s++ {
				lo := (i * benchBatch) & (1<<16 - 1)
				hi := lo + benchBatch
				if hi > len(inputs[s]) {
					hi = len(inputs[s])
				}
				chunk := inputs[s][lo:hi]
				if len(chunk) > remaining {
					chunk = chunk[:remaining]
				}
				batch := make([]trace.Mutation, 0, perMsg)
				for k := 0; k < perMsg; k++ {
					batch = append(batch, muts[s].mutation())
				}
				if err := e.ApplyTopology(s, batch); err != nil {
					b.Fatal(err)
				}
				if err := e.Submit(s, chunk); err != nil {
					b.Fatal(err)
				}
				remaining -= len(chunk)
			}
		}
		e.Drain()
		if st := e.Stats(); st.TopoErrs > 0 {
			b.Fatalf("%d topology mutations rejected", st.TopoErrs)
		}
	}
}

// chunked splits a trace into consecutive batches of benchBatch.
func chunked(full trace.Trace) []trace.Trace {
	var out []trace.Trace
	for lo := 0; lo < len(full); lo += benchBatch {
		hi := lo + benchBatch
		if hi > len(full) {
			hi = len(full)
		}
		out = append(out, full[lo:hi])
	}
	return out
}

// fleetBench submits b.N requests round-robin across a fleet of shards
// TC instances in pre-chunked batches, then drains. Each shard serves
// RandomMixed traffic, or Bursts(runLen) when runLen > 0.
func fleetBench(shards, runLen int) func(*testing.B) {
	return func(b *testing.B) {
		t := benchTree()
		inputs := make([][]trace.Trace, shards)
		for s := 0; s < shards; s++ {
			rng := rand.New(rand.NewSource(int64(1 + s)))
			if runLen > 0 {
				inputs[s] = chunked(trace.Bursts(rng, t, trace.BurstsConfig{
					Rounds: 1 << 16, RunLen: runLen, ZipfS: 1.1, NegFrac: 0.5,
				}))
			} else {
				inputs[s] = chunked(trace.RandomMixed(rng, t, 1<<16))
			}
		}
		e := engine.New(engine.Config{
			Shards: shards,
			NewShard: func(i int) engine.Algorithm {
				return core.New(t, core.Config{Alpha: 8, Capacity: t.Len() / 2})
			},
		})
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		remaining := b.N
		for i := 0; remaining > 0; i++ {
			for s := 0; s < shards && remaining > 0; s++ {
				chunk := inputs[s][i%len(inputs[s])]
				if len(chunk) > remaining {
					chunk = chunk[:remaining]
				}
				if err := e.Submit(s, chunk); err != nil {
					b.Fatal(err)
				}
				remaining -= len(chunk)
			}
		}
		e.Drain()
	}
}

// daemonBench boots an in-process server on an ephemeral loopback port
// with treecached's configuration — the zero server.Config's defaults,
// supervision on — and no persistence or quota, and drives b.N
// requests through real wire clients, one goroutine per tenant, in
// pre-chunked batches. With wal, the write-ahead log is on at the
// default group-commit window and acks wait for the covering fsync.
// The engine is drained before the timer stops.
func daemonBench(clients int, wal bool) func(*testing.B) {
	return func(b *testing.B) {
		t := benchTree()
		trees := make([]*tree.Tree, clients)
		inputs := make([][]trace.Trace, clients)
		for s := 0; s < clients; s++ {
			trees[s] = t
			rng := rand.New(rand.NewSource(int64(1 + s)))
			inputs[s] = chunked(trace.RandomMixed(rng, t, 1<<16))
		}
		cfg := server.Config{
			Addr:     "127.0.0.1:0",
			Trees:    trees,
			Alpha:    8,
			Capacity: t.Len() / 2,
		}
		if wal {
			dir := b.TempDir()
			cfg.StateDir = dir
			cfg.WALDir = dir
		}
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		cls := make([]*client.Client, clients)
		for s := range cls {
			cls[s] = client.New(client.Config{Addr: srv.Addr(), Seed: int64(1 + s)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		errc := make(chan error, clients)
		for s := 0; s < clients; s++ {
			share := b.N / clients
			if s < b.N%clients {
				share++
			}
			wg.Add(1)
			go func(s, share int) {
				defer wg.Done()
				cl := cls[s]
				for i := 0; share > 0; i++ {
					chunk := inputs[s][i%len(inputs[s])]
					if len(chunk) > share {
						chunk = chunk[:share]
					}
					if err := cl.Serve(s, chunk); err != nil {
						errc <- err
						return
					}
					share -= len(chunk)
				}
			}(s, share)
		}
		wg.Wait()
		close(errc)
		srv.Engine().Drain()
		b.StopTimer()
		for _, cl := range cls {
			cl.Close()
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		for err := range errc {
			b.Fatal(err)
		}
	}
}
