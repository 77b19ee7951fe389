package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// fleet builds a mixed-shape fleet of trees for the tests.
func fleet(tenants int) []*tree.Tree {
	trees := make([]*tree.Tree, tenants)
	for i := range trees {
		switch i % 4 {
		case 0:
			trees[i] = tree.CompleteKary(63+i, 2)
		case 1:
			trees[i] = tree.Star(40 + i)
		case 2:
			trees[i] = tree.Path(30 + i)
		default:
			trees[i] = tree.Caterpillar(8, 3)
		}
	}
	return trees
}

// TestEngineMatchesSequential: a concurrent fleet run must be
// equivalent to serving each tenant's projected trace sequentially —
// identical ledgers, rounds, peak occupancy and final cache contents.
func TestEngineMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	const tenants = 6
	trees := fleet(tenants)
	mt := trace.MultiTenant(rng, trees, trace.MultiTenantConfig{
		Rounds: 20000, TenantS: 1.1, NodeS: 1.0, NegFrac: 0.3, BurstFrac: 0.05, BurstLen: 6,
	})
	if err := mt.Validate(trees); err != nil {
		t.Fatal(err)
	}

	mkTC := func(i int) *core.TC {
		return core.New(trees[i], core.Config{Alpha: 4, Capacity: 1 + trees[i].Len()/2})
	}
	tcs := make([]*core.TC, tenants)
	e := engine.New(engine.Config{
		Shards: tenants,
		NewShard: func(i int) engine.Algorithm {
			tcs[i] = mkTC(i)
			return tcs[i]
		},
		QueueLen: 4,
	})
	for _, batchLen := range []int{1, 7, 1024} {
		if err := e.SubmitMulti(mt, batchLen); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	st := e.Stats()
	e.Close()

	split := mt.Split(tenants)
	for i := 0; i < tenants; i++ {
		seq := mkTC(i)
		// The engine served the trace 3 times (three batch
		// granularities); its MaxCache is the peak across all of them.
		maxCache := 0
		for rep := 0; rep < 3; rep++ {
			if r := sim.Run(seq, split[i]); r.MaxCache > maxCache {
				maxCache = r.MaxCache
			}
		}
		ss := st.Shards[i]
		if ss.Rounds != 3*int64(len(split[i])) {
			t.Fatalf("shard %d: rounds %d, want %d", i, ss.Rounds, 3*len(split[i]))
		}
		led := seq.Ledger()
		if ss.Serve != led.Serve || ss.Move != led.Move || ss.Fetched != led.Fetched || ss.Evicted != led.Evicted {
			t.Fatalf("shard %d ledger: %+v, want %+v", i, ss, led)
		}
		if ss.MaxCache != maxCache {
			t.Fatalf("shard %d maxCache %d, want %d", i, ss.MaxCache, maxCache)
		}
		if !equalNodes(tcs[i].CacheMembers(), seq.CacheMembers()) {
			t.Fatalf("shard %d final cache differs: %v vs %v", i, tcs[i].CacheMembers(), seq.CacheMembers())
		}
	}
	// Aggregates are the shard sums.
	var rounds int64
	for _, ss := range st.Shards {
		rounds += ss.Rounds
	}
	if st.Rounds != rounds || st.Rounds != 3*int64(len(mt)) {
		t.Fatalf("aggregate rounds %d, shard sum %d, want %d", st.Rounds, rounds, 3*len(mt))
	}
	if st.Total() != st.Serve+st.Move {
		t.Fatalf("stats total %d != serve %d + move %d", st.Total(), st.Serve, st.Move)
	}
}

// TestEngineMixedAlgorithms: shards may run different algorithm types.
func TestEngineMixedAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	tr := tree.CompleteKary(31, 2)
	e := engine.New(engine.Config{
		Shards: 2,
		NewShard: func(i int) engine.Algorithm {
			if i == 0 {
				return core.New(tr, core.Config{Alpha: 4, Capacity: 8})
			}
			return core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 8}})
		},
	})
	defer e.Close()
	in := trace.RandomMixed(rng, tr, 2000)
	if err := e.Submit(0, in); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(1, in); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	st := e.Stats()
	if _, ok := e.Algorithm(1).(*core.MutableTC); !ok {
		t.Fatalf("shard 1 runs %T", e.Algorithm(1))
	}
	if st.Shards[0].Rounds != 2000 || st.Shards[1].Rounds != 2000 {
		t.Fatalf("rounds %d / %d, want 2000 each", st.Shards[0].Rounds, st.Shards[1].Rounds)
	}
	// Same requests, same tree, same decisions: the dynamic instance
	// serves a static topology exactly like TC.
	if st.Shards[0].Total() != st.Shards[1].Total() {
		t.Fatalf("TC total %d, MutableTC total %d", st.Shards[0].Total(), st.Shards[1].Total())
	}
}

// TestEngineStatsFromAlgorithm: a shard's Rounds, ledger and MaxCache
// are the algorithm's own counters. A request to a withdrawn rule is a
// free no-op for MutableTC, not a round, so Rounds must not count it;
// and a shard built over a restored instance reports the restored
// counters as soon as New returns, before any message.
func TestEngineStatsFromAlgorithm(t *testing.T) {
	cfg := core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 16}}
	t.Run("withdrawn", func(t *testing.T) {
		m := core.NewMutable(tree.CompleteKary(63, 2), cfg)
		e := engine.New(engine.Config{Shards: 1, NewShard: func(int) engine.Algorithm { return m }})
		defer e.Close()
		for _, mut := range []trace.Mutation{trace.InsertMut(63, 3), trace.DeleteMut(63)} {
			if err := e.ApplyTopology(0, []trace.Mutation{mut}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Submit(0, trace.Trace{trace.Pos(5), trace.Pos(63), trace.Pos(63), trace.Pos(7)}); err != nil {
			t.Fatal(err)
		}
		e.Drain()
		if got := e.Stats().Shards[0].Rounds; got != 2 || got != m.Round() {
			t.Fatalf("Rounds %d, algorithm Round %d; want 2 for both", got, m.Round())
		}
	})
	t.Run("restored", func(t *testing.T) {
		tr := tree.CompleteKary(63, 2)
		src := core.NewMutable(tr, cfg)
		src.ServeBatch(trace.ZipfNodes(rand.New(rand.NewSource(206)), tr, 2000, 1.1))
		blob, err := snapshot.Capture(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := snapshot.Restore(blob)
		if err != nil {
			t.Fatal(err)
		}
		if m.MaxCacheLen() == 0 {
			t.Fatal("restored instance has no peak to report")
		}
		e := engine.New(engine.Config{Shards: 1, NewShard: func(int) engine.Algorithm { return m }})
		defer e.Close()
		ss := e.Stats().Shards[0]
		if ss.MaxCache != m.MaxCacheLen() || ss.Rounds != m.Round() || ss.Total() != m.Ledger().Total() {
			t.Fatalf("stats right after New: %+v; want peak %d, rounds %d, total %d",
				ss, m.MaxCacheLen(), m.Round(), m.Ledger().Total())
		}
	})
}

// TestEngineDrainIsExact: after Drain, Stats must reflect every
// submitted request, and latency counters must be populated.
func TestEngineDrainIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	tr := tree.Star(64)
	e := engine.New(engine.Config{
		Shards:   3,
		NewShard: func(i int) engine.Algorithm { return core.New(tr, core.Config{Alpha: 2, Capacity: 32}) },
		QueueLen: 2,
	})
	defer e.Close()
	total := 0
	for round := 0; round < 5; round++ {
		for s := 0; s < 3; s++ {
			n := 100 + rng.Intn(400)
			if err := e.Submit(s, trace.RandomMixed(rng, tr, n)); err != nil {
				t.Fatal(err)
			}
			total += n
		}
		e.Drain()
		st := e.Stats()
		if st.Rounds != int64(total) {
			t.Fatalf("after drain %d: rounds %d, want %d", round, st.Rounds, total)
		}
	}
	st := e.Stats()
	if st.Batches != 15 {
		t.Fatalf("batches %d, want 15", st.Batches)
	}
	for _, ss := range st.Shards {
		if ss.BusyNs <= 0 || ss.MaxBatch <= 0 || ss.MaxBatch > ss.BusyNs {
			t.Fatalf("shard %d latency counters: %+v", ss.Shard, ss)
		}
	}
}

// TestEngineSubmitErrors: shard range and closed-engine errors.
func TestEngineSubmitErrors(t *testing.T) {
	tr := tree.Path(4)
	e := engine.New(engine.Config{
		Shards:   2,
		NewShard: func(i int) engine.Algorithm { return core.New(tr, core.Config{Alpha: 2, Capacity: 2}) },
	})
	if err := e.Submit(-1, trace.Trace{trace.Pos(0)}); err == nil {
		t.Fatal("negative shard accepted")
	}
	if err := e.Submit(2, trace.Trace{trace.Pos(0)}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := e.Submit(0, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := e.SubmitMulti(trace.MultiTrace{{Tenant: 5, Req: trace.Pos(0)}}, 0); err == nil {
		t.Fatal("out-of-range tenant accepted")
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Submit(0, trace.Trace{trace.Pos(0)}); err != engine.ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestSubmitMultiPooledAllocs pins the dispatch path's allocation
// behaviour: SubmitMulti chunk buffers are recycled through the
// engine's free list, so a steady-state SubmitMulti+Drain cycle may
// allocate at most the per-batch stats snapshot (one ShardStats
// publication per batch) plus a small per-call constant — NOT a fresh
// chunk buffer per batch, which is what the unpooled dispatcher paid.
func TestSubmitMultiPooledAllocs(t *testing.T) {
	const tenants = 4
	trees := fleet(tenants)
	rng := rand.New(rand.NewSource(205))
	mt := trace.MultiTenant(rng, trees, trace.MultiTenantConfig{
		Rounds: 1 << 13, TenantS: 0, NodeS: 1.0, NegFrac: 0.4, BurstFrac: 0.1, BurstLen: 8,
	})
	const batchLen = 64
	batches := 0
	for _, tr := range mt.Split(tenants) {
		batches += (len(tr) + batchLen - 1) / batchLen
	}
	e := engine.New(engine.Config{
		Shards: tenants,
		NewShard: func(i int) engine.Algorithm {
			return core.New(trees[i], core.Config{Alpha: 4, Capacity: 1 + trees[i].Len()/2})
		},
	})
	defer e.Close()
	run := func() {
		if err := e.SubmitMulti(mt, batchLen); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	run() // warm the free list and the per-shard scratch arenas
	allocs := testing.AllocsPerRun(5, run)
	// Snapshot publication is the only per-batch allocation left; the
	// slack covers the per-call pending array, the drain channel and
	// runtime noise. An unpooled dispatcher allocates ≥ 2 per batch
	// (chunk buffer + snapshot) and fails this bound.
	if limit := float64(batches) + 32; allocs > limit {
		t.Errorf("SubmitMulti+Drain allocated %.0f times for %d batches, want <= %.0f (pooled chunk buffers)",
			allocs, batches, limit)
	}
}

func equalNodes(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineDeepTreeFleet runs a fleet whose shards all serve DEEP
// trees (long heavy paths, the shapes the heavy-path serve core
// targets), with several shards sharing one *tree.Tree — and hence its
// lazily-built heavy-path segment skeleton — and asserts exact
// equivalence with per-shard sequential replay.
func TestEngineDeepTreeFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	shared := tree.Path(5000) // shards 0 and 1 share this tree (and its skeleton)
	trees := []*tree.Tree{
		shared,
		shared,
		tree.Caterpillar(1500, 1),
		tree.Random(rand.New(rand.NewSource(7)), 4096, 3),
	}
	mt := trace.MultiTenant(rng, trees, trace.MultiTenantConfig{
		Rounds: 30000, TenantS: 1.0, NodeS: 1.0, NegFrac: 0.4, BurstFrac: 0.1, BurstLen: 8,
	})
	if err := mt.Validate(trees); err != nil {
		t.Fatal(err)
	}
	mkTC := func(i int) *core.TC {
		return core.New(trees[i], core.Config{Alpha: 8, Capacity: 1 + trees[i].Len()/3})
	}
	tcs := make([]*core.TC, len(trees))
	e := engine.New(engine.Config{
		Shards: len(trees),
		NewShard: func(i int) engine.Algorithm {
			tcs[i] = mkTC(i)
			return tcs[i]
		},
	})
	if err := e.SubmitMulti(mt, 256); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	st := e.Stats()
	e.Close()
	split := mt.Split(len(trees))
	for i := range trees {
		seq := mkTC(i)
		sim.Run(seq, split[i])
		led := seq.Ledger()
		ss := st.Shards[i]
		if ss.Serve != led.Serve || ss.Move != led.Move {
			t.Fatalf("deep shard %d: engine (serve=%d move=%d) vs sequential (serve=%d move=%d)",
				i, ss.Serve, ss.Move, led.Serve, led.Move)
		}
		if !equalNodes(tcs[i].CacheMembers(), seq.CacheMembers()) {
			t.Fatalf("deep shard %d: final caches differ", i)
		}
	}
}
