package experiments

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/tree"
)

// BenchCase is one cell of the TC serve-path microbenchmark grid. The
// grid is the single source of truth shared by the repo-root
// BenchmarkTC* benchmarks and the cmd/experiments -bench-json
// recorder, so the recorded BENCH_core.json trajectory always measures
// exactly the workloads CI smokes.
type BenchCase struct {
	Name     string // "<group>/<param>", e.g. "TCStar/n=1024"
	Build    func() *tree.Tree
	Capacity int
}

// TCBenchCases returns the canonical shape grid: stars (h=1, huge
// degree), paths (h=n−1) up to trie-chain depths, complete binary
// trees, fixed-size trees of growing fanout, and the deep shapes the
// heavy-path serve core targets (caterpillar spine, depth-biased
// random attachment). Alpha is fixed at 8 and the capacity at half the
// node count by the harnesses.
func TCBenchCases() []BenchCase {
	return []BenchCase{
		{"TCStar/n=1024", func() *tree.Tree { return tree.Star(1 << 10) }, 1 << 9},
		{"TCStar/n=16384", func() *tree.Tree { return tree.Star(1 << 14) }, 1 << 13},
		{"TCStar/n=262144", func() *tree.Tree { return tree.Star(1 << 18) }, 1 << 17},
		{"TCPath/n=256", func() *tree.Tree { return tree.Path(1 << 8) }, 1 << 7},
		{"TCPath/n=1024", func() *tree.Tree { return tree.Path(1 << 10) }, 1 << 9},
		{"TCPath/n=4096", func() *tree.Tree { return tree.Path(1 << 12) }, 1 << 11},
		{"TCPath/n=16384", func() *tree.Tree { return tree.Path(1 << 14) }, 1 << 13},
		{"TCPath/n=65536", func() *tree.Tree { return tree.Path(1 << 16) }, 1 << 15},
		{"TCBinary/n=1024", func() *tree.Tree { return tree.CompleteKary(1<<10, 2) }, 1 << 9},
		{"TCBinary/n=16384", func() *tree.Tree { return tree.CompleteKary(1<<14, 2) }, 1 << 13},
		{"TCBinary/n=262144", func() *tree.Tree { return tree.CompleteKary(1<<18, 2) }, 1 << 17},
		{"TCWideFanout/deg=4", func() *tree.Tree { return tree.CompleteKary(1<<14, 4) }, 1 << 13},
		{"TCWideFanout/deg=64", func() *tree.Tree { return tree.CompleteKary(1<<14, 64) }, 1 << 13},
		{"TCWideFanout/deg=1024", func() *tree.Tree { return tree.CompleteKary(1<<14, 1024) }, 1 << 13},
		// Deep shapes: an 8192-node spine with one leg per spine node
		// (the FIB-trie-chain worst case with decoys), and a
		// depth-biased random recursive tree (deterministic seed).
		{"TCCaterpillar/n=16384", func() *tree.Tree { return tree.Caterpillar(1<<13, 1) }, 1 << 13},
		{"TCDeepRandom/n=16384", func() *tree.Tree {
			return tree.Random(rand.New(rand.NewSource(42)), 1<<14, 3)
		}, 1 << 13},
	}
}

// BurstBenchCase is one cell of the batched-serve burst grid: a
// Bursts(RunLen) workload over the TCBinary/n=16384 tree, served in
// chunks of Batch requests. Batched rows go through TC.ServeBatch
// (run-coalescing); the Seq row replays the identical trace
// per-request and is the "before" side of the amortization claim.
type BurstBenchCase struct {
	Name    string
	RunLen  int
	Batch   int
	Batched bool
}

// BurstBenchCases returns the canonical burst grid, shared by the
// repo-root BenchmarkTCBurst and the cmd/experiments -bench-json
// recorder. TCBurstSeq/run=64 records the per-request serve path on
// the same trace as TCBurst/run=64, so the recorded JSON carries the
// before/after pair (cross-run containers drift ±30%; the in-process
// BenchmarkServeBatch/BenchmarkServeBatchOracle pair in internal/core
// is the authoritative delta).
func BurstBenchCases() []BurstBenchCase {
	return []BurstBenchCase{
		{"TCBurst/run=8", 8, 1024, true},
		{"TCBurst/run=64", 64, 1024, true},
		{"TCBurst/run=512", 512, 1024, true},
		{"TCBurstSeq/run=64", 64, 1024, false},
	}
}

// BurstBenchTree builds the tree of the burst grid.
func BurstBenchTree() *tree.Tree { return tree.CompleteKary(1<<14, 2) }

// BurstBench is the single benchmark body behind one burst grid cell:
// b.N total requests of a deterministic bursty trace, served in
// pre-chunked batches either via ServeBatch or per-request.
func BurstBench(b *testing.B, c BurstBenchCase) {
	t := BurstBenchTree()
	rng := rand.New(rand.NewSource(11))
	input := trace.Bursts(rng, t, trace.BurstsConfig{
		Rounds: 1 << 16, RunLen: c.RunLen, ZipfS: 1.1, NegFrac: 0.5,
	})
	tc := core.New(t, core.Config{Alpha: 8, Capacity: 1 << 13})
	b.ReportAllocs()
	b.ResetTimer()
	for served := 0; served < b.N; {
		lo := served & (1<<16 - 1)
		hi := lo + c.Batch
		if hi > len(input) {
			hi = len(input)
		}
		if hi-lo > b.N-served {
			hi = lo + (b.N - served)
		}
		chunk := input[lo:hi]
		if c.Batched {
			tc.ServeBatch(chunk)
		} else {
			for _, req := range chunk {
				tc.Serve(req)
			}
		}
		served += len(chunk)
	}
}

// ChurnBenchCase is one cell of the dynamic-topology churn grid: a
// MutableTC over the TCBinary/n=16384 tree served RandomMixed traffic
// with one topology mutation (announce/withdraw, net-zero growth)
// every Rate operations. ns_per_op is per operation (request or
// mutation), so the rate=1 row is pure mutation throughput — the
// amortized overlay + state-migrating-rebuild cost — and rate=256 is
// serving with background churn.
type ChurnBenchCase struct {
	Name   string
	Rate   int // one mutation every Rate operations
	Shards int // 0 = single instance; > 0 = sharded engine with ApplyTopology
	Batch  int // engine batch size (engine rows only)
}

// ChurnBenchCases returns the canonical churn grid, shared by the
// repo-root BenchmarkTCChurn and the cmd/experiments -bench-json
// recorder. The in-process BenchmarkChurnMutation pair in
// internal/core is the authoritative sublinearity evidence.
func ChurnBenchCases() []ChurnBenchCase {
	return []ChurnBenchCase{
		{"TCChurn/rate=1", 1, 0, 0},
		{"TCChurn/rate=16", 16, 0, 0},
		{"TCChurn/rate=256", 256, 0, 0},
	}
}

// EngineChurnCases returns the fleet churn row: 4 shards of MutableTC
// served batches with interleaved ApplyTopology control messages (one
// mutation per Rate requests, dispatched between batches).
func EngineChurnCases() []ChurnBenchCase {
	return []ChurnBenchCase{
		{"EngineChurn/shards=4", 16, 4, 1024},
	}
}

// churnMutator generates the net-zero mutation schedule of the churn
// grid: odd mutations insert a leaf under a rotating seed node, even
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

// ChurnBench is the single benchmark body behind one single-instance
// churn cell: b.N operations, every Rate-th a topology mutation.
func ChurnBench(b *testing.B, c ChurnBenchCase) {
	t := BurstBenchTree()
	rng := rand.New(rand.NewSource(17))
	input := trace.RandomMixed(rng, t, 1<<16)
	m := core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: 8, Capacity: 1 << 13}})
	cm := newChurnMutator(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%c.Rate == 0 {
			if err := m.Apply(cm.mutation()); err != nil {
				b.Fatal(err)
			}
			continue
		}
		m.Serve(input[i&(1<<16-1)])
	}
}

// EngineChurnBench is the benchmark body behind the fleet churn cell:
// b.N requests are submitted round-robin in pre-chunked batches with
// one ApplyTopology control message (Batch/Rate mutations) between a
// shard's consecutive batches.
func EngineChurnBench(b *testing.B, c ChurnBenchCase) {
	t := EngineBenchTree()
	inputs := make([]trace.Trace, c.Shards)
	for s := range inputs {
		inputs[s] = trace.RandomMixed(rand.New(rand.NewSource(int64(1+s))), t, 1<<16)
	}
	muts := make([]*churnMutator, c.Shards)
	for s := range muts {
		muts[s] = newChurnMutator(t)
	}
	e := engine.New(engine.Config{
		Shards: c.Shards,
		NewShard: func(i int) engine.Algorithm {
			return core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: 8, Capacity: EngineBenchCapacity}})
		},
	})
	defer e.Close()
	perMsg := c.Batch / c.Rate
	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	for i := 0; remaining > 0; i++ {
		for s := 0; s < c.Shards && remaining > 0; s++ {
			lo := (i * c.Batch) & (1<<16 - 1)
			hi := lo + c.Batch
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

// EngineBenchCase is one cell of the sharded-engine throughput grid:
// a fleet of Shards TC instances, each over a complete binary tree of
// 2^14 nodes (the TCBinary/n=16384 single-instance workload), served
// in batches of Batch requests. The recorded ns_per_op is per request
// across the whole fleet, so aggregate ops/s = 1e9 / ns_per_op; on a
// multi-core host shards=4 must beat shards=1 (the single-instance
// serve path) by the core count, on a single-core host they tie.
// RunLen > 0 switches the per-shard workload from RandomMixed to
// Bursts(RunLen) — the EngineBurst rows, which measure how much of the
// ServeBatch amortization survives fleet dispatch.
type EngineBenchCase struct {
	Name   string
	Shards int
	Batch  int
	RunLen int
}

// EngineBenchCases returns the canonical fleet grid, shared by the
// repo-root BenchmarkEngineFleet and the cmd/experiments -bench-json
// recorder.
func EngineBenchCases() []EngineBenchCase {
	return []EngineBenchCase{
		{"EngineFleet/shards=1", 1, 1024, 0},
		{"EngineFleet/shards=2", 2, 1024, 0},
		{"EngineFleet/shards=4", 4, 1024, 0},
		{"EngineFleet/shards=8", 8, 1024, 0},
	}
}

// EngineBurstCases returns the bursty fleet grid: 4 shards served
// FIB-update-storm traffic, the workload the engine's batched workers
// coalesce via ServeBatch.
func EngineBurstCases() []EngineBenchCase {
	return []EngineBenchCase{
		{"EngineBurst/run=8", 4, 1024, 8},
		{"EngineBurst/run=64", 4, 1024, 64},
		{"EngineBurst/run=512", 4, 1024, 512},
	}
}

// EngineBenchTree builds the per-shard tree of the engine grid.
func EngineBenchTree() *tree.Tree { return tree.CompleteKary(1<<14, 2) }

// EngineBenchCapacity is the per-shard cache capacity of the grid.
const EngineBenchCapacity = 1 << 13

// EngineFleetBench is the single benchmark body behind one grid cell,
// shared by the repo-root BenchmarkEngineFleet and the -bench-json
// recorder so the two measurements can never drift apart: b.N total
// requests are submitted round-robin across the fleet in pre-chunked
// batches, then drained, so ns/op is per request served anywhere in
// the fleet.
func EngineFleetBench(b *testing.B, c EngineBenchCase) {
	t := EngineBenchTree()
	inputs := make([][]trace.Trace, c.Shards)
	for s := 0; s < c.Shards; s++ {
		rng := rand.New(rand.NewSource(int64(1 + s)))
		var full trace.Trace
		if c.RunLen > 0 {
			full = trace.Bursts(rng, t, trace.BurstsConfig{
				Rounds: 1 << 16, RunLen: c.RunLen, ZipfS: 1.1, NegFrac: 0.5,
			})
		} else {
			full = trace.RandomMixed(rng, t, 1<<16)
		}
		for lo := 0; lo < len(full); lo += c.Batch {
			hi := lo + c.Batch
			if hi > len(full) {
				hi = len(full)
			}
			inputs[s] = append(inputs[s], full[lo:hi])
		}
	}
	e := engine.New(engine.Config{
		Shards: c.Shards,
		NewShard: func(i int) engine.Algorithm {
			return core.New(t, core.Config{Alpha: 8, Capacity: EngineBenchCapacity})
		},
	})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	for i := 0; remaining > 0; i++ {
		for s := 0; s < c.Shards && remaining > 0; s++ {
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

// DaemonBenchCase is one cell of the treecached loopback grid: the
// full client→daemon round trip (frame encode, TCP, decode, sequenced
// admission, engine dispatch, serve, ack) over 127.0.0.1, with one
// tenant shard per concurrent client.
type DaemonBenchCase struct {
	Name    string
	Clients int
	Batch   int
	// WAL turns on the durable write-ahead log (group-commit fsync at
	// the daemon's default 2ms window, acks withheld until the covering
	// fsync), so the wal=1 rows price the durability tax of "ack means
	// on disk" against the in-memory rows.
	WAL bool
}

// DaemonBenchCases returns the canonical daemon grid, shared by the
// repo-root BenchmarkDaemonLoopback and the cmd/experiments
// -bench-json recorder. Comparing clients=4 against clients=1 shows
// how much of the fleet's shard parallelism survives the wire;
// comparing wal=1 against its in-memory twin in the same process run
// quotes the durability tax.
func DaemonBenchCases() []DaemonBenchCase {
	return []DaemonBenchCase{
		{"DaemonLoopback/clients=1", 1, 1024, false},
		{"DaemonLoopback/clients=4", 4, 1024, false},
		{"DaemonLoopback/clients=1/wal=1", 1, 1024, true},
		{"DaemonLoopback/clients=4/wal=1", 4, 1024, true},
	}
}

// DaemonLoopbackBench boots an in-process server on an ephemeral
// loopback port (no persistence, no quota, supervision checkpoints
// off so the cell isolates the wire+dispatch path) and drives b.N
// total requests through real wire clients, one goroutine per tenant,
// in pre-chunked batches. The engine is drained before the timer
// stops, so ns/op is per request served end to end over TCP.
func DaemonLoopbackBench(b *testing.B, c DaemonBenchCase) {
	t := EngineBenchTree()
	trees := make([]*tree.Tree, c.Clients)
	inputs := make([][]trace.Trace, c.Clients)
	for s := 0; s < c.Clients; s++ {
		trees[s] = t
		rng := rand.New(rand.NewSource(int64(1 + s)))
		full := trace.RandomMixed(rng, t, 1<<16)
		for lo := 0; lo < len(full); lo += c.Batch {
			hi := lo + c.Batch
			if hi > len(full) {
				hi = len(full)
			}
			inputs[s] = append(inputs[s], full[lo:hi])
		}
	}
	cfg := server.Config{
		Addr:            "127.0.0.1:0",
		Trees:           trees,
		Alpha:           8,
		Capacity:        EngineBenchCapacity,
		QueueLen:        64,
		CheckpointEvery: -1,
	}
	if c.WAL {
		dir := b.TempDir()
		cfg.StateDir = dir
		cfg.WALDir = dir
		cfg.FsyncInterval = 2 * time.Millisecond
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	clients := make([]*client.Client, c.Clients)
	for s := range clients {
		clients[s] = client.New(client.Config{Addr: srv.Addr(), Seed: int64(1 + s)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errc := make(chan error, c.Clients)
	for s := 0; s < c.Clients; s++ {
		share := b.N / c.Clients
		if s < b.N%c.Clients {
			share++
		}
		wg.Add(1)
		go func(s, share int) {
			defer wg.Done()
			cl := clients[s]
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
	for _, cl := range clients {
		cl.Close()
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	for err := range errc {
		b.Fatal(err)
	}
}
