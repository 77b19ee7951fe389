package treecache_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/treecache"
)

// TestPublicEngineFlow drives the public fleet surface end to end: a
// multi-tenant workload over mixed tree shapes, served concurrently by
// the sharded engine, must cost exactly what per-tenant sequential
// Cache instances cost, and the multi-tenant text format must round-
// trip the workload.
func TestPublicEngineFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trees := []*treecache.Tree{
		treecache.CompleteKary(63, 2),
		treecache.Star(40),
		treecache.Path(24),
	}
	opts := treecache.Options{Alpha: 4, Capacity: 16}
	mt := treecache.MultiTenantWorkload(rng, trees, treecache.MultiTenantConfig{
		Rounds: 15000, TenantS: 1.1, NodeS: 1.0, NegFrac: 0.25, BurstFrac: 0.05, BurstLen: 4,
	})
	if err := treecache.ValidateMultiTrace(mt, trees); err != nil {
		t.Fatal(err)
	}

	// Text format round-trip.
	var buf bytes.Buffer
	if err := mt.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := treecache.ReadMultiTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(mt) {
		t.Fatalf("round trip length %d, want %d", len(back), len(mt))
	}

	eng := treecache.NewEngine(trees, opts, treecache.EngineOptions{})
	if eng.Shards() != len(trees) {
		t.Fatalf("shards = %d", eng.Shards())
	}
	if err := eng.SubmitMulti(back, 256); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	st := eng.Stats()
	defer eng.Close()

	if st.Rounds != int64(len(mt)) {
		t.Fatalf("served %d rounds, want %d", st.Rounds, len(mt))
	}
	for i, split := range mt.Split(len(trees)) {
		seq := treecache.New(trees[i], opts)
		for _, r := range split {
			seq.Request(r)
		}
		ss := st.Shards[i]
		if ss.Total() != seq.Cost() {
			t.Fatalf("shard %d cost %d, sequential cache cost %d", i, ss.Total(), seq.Cost())
		}
		got := eng.Shard(i).Members()
		want := seq.Members()
		if len(got) != len(want) {
			t.Fatalf("shard %d cache size %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("shard %d cache differs at %d: %v vs %v", i, j, got, want)
			}
		}
	}

	// Single-shard Submit variadic path.
	if err := eng.Submit(0, treecache.Pos(1), treecache.Neg(1)); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if got := eng.Stats().Rounds; got != int64(len(mt))+2 {
		t.Fatalf("rounds after extra submit: %d", got)
	}
}

// TestPublicSnapshotFlow drives the public crash-safety surface: a
// Cache snapshot restores to an equivalent instance (both in place and
// as a fresh Cache), corrupted bytes are rejected without damage, and
// a supervised fleet exposes its checkpoint counters.
func TestPublicSnapshotFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := treecache.CompleteKary(31, 2)
	c := treecache.New(tr, treecache.Options{Alpha: 4, Capacity: 8})
	for i := 0; i < 500; i++ {
		v := treecache.NodeID(rng.Intn(31))
		if rng.Intn(3) == 0 {
			c.Request(treecache.Neg(v))
		} else {
			c.Request(treecache.Pos(v))
		}
	}
	blob, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifySnapshot(blob); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x20
	if err := c.VerifySnapshot(bad); err == nil {
		t.Fatal("corrupted snapshot verified")
	}
	if err := c.Restore(bad); err == nil {
		t.Fatal("corrupted snapshot restored")
	}

	c2, err := treecache.RestoreCache(blob)
	if err != nil {
		t.Fatal(err)
	}
	c3 := treecache.New(tr, treecache.Options{Alpha: 4, Capacity: 8})
	if err := c3.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for _, other := range []*treecache.Cache{c2, c3} {
		if other.Ledger() != c.Ledger() || other.CacheLen() != c.CacheLen() {
			t.Fatal("restored cache diverges from the captured one")
		}
	}
	// The three instances must stay in lockstep on further traffic.
	for i := 0; i < 300; i++ {
		r := treecache.Pos(treecache.NodeID(rng.Intn(31)))
		if rng.Intn(3) == 0 {
			r = treecache.Neg(r.Node)
		}
		s0, m0 := c.Request(r)
		for _, other := range []*treecache.Cache{c2, c3} {
			if s, m := other.Request(r); s != s0 || m != m0 {
				t.Fatalf("restored cache diverged at round %d", i)
			}
		}
	}

	trees := []*treecache.Tree{treecache.CompleteKary(31, 2), treecache.Path(16)}
	e := treecache.NewEngine(trees, treecache.Options{Alpha: 4, Capacity: 8},
		treecache.EngineOptions{QueueLen: 4, CheckpointEvery: 2})
	defer e.Close()
	if !e.Supervised(0) || !e.Supervised(1) {
		t.Fatal("snapshot-capable fleet not supervised")
	}
	if err := e.TrySubmit(0, treecache.Pos(3), treecache.Pos(4)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitCtx(context.Background(), 1, treecache.Trace{treecache.Pos(2)}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	st := e.Stats()
	if st.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", st.Rounds)
	}
	if st.Checkpoints == 0 {
		t.Fatal("supervised fleet took no checkpoints")
	}
}
