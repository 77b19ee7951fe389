// Chaos differential suite: a supervised engine fleet driven through
// deterministic faults — panics mid-batch and mid-churn, corrupted
// checkpoint captures, stalled shards — must end bit-for-bit
// equivalent to the sequential oracle: same costs, same final cache,
// same per-node counters. Run with -race; the suite doubles as the
// engine's concurrency regression test under faults.
package faultinject_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

func buildTree(shape, n int) *tree.Tree {
	switch shape % 4 {
	case 0:
		return tree.Path(n)
	case 1:
		return tree.Star(n)
	case 2:
		return tree.CompleteKary(n, 2)
	default:
		return tree.CompleteKary(n, 3)
	}
}

func randTrace(rng *rand.Rand, n, length int) trace.Trace {
	tr := make(trace.Trace, length)
	for i := range tr {
		k := trace.Positive
		if rng.Intn(3) == 0 {
			k = trace.Negative
		}
		tr[i] = trace.Request{Node: tree.NodeID(rng.Intn(n)), Kind: k}
	}
	return tr
}

// unwrap digs the MutableTC out of a supervised, fault-wrapped shard.
func unwrap(t *testing.T, a engine.Algorithm) *core.MutableTC {
	t.Helper()
	w, ok := a.(*faultinject.Algo)
	if !ok {
		t.Fatalf("shard algorithm is %T, want *faultinject.Algo", a)
	}
	ck, ok := w.Inner.(snapshot.Checkpointed)
	if !ok {
		t.Fatalf("inner algorithm is %T, want snapshot.Checkpointed", w.Inner)
	}
	return ck.MutableTC
}

// TestChaosDifferentialStatic pins a faulted fleet to the Section-4
// sequential Reference on static trees: mid-batch panics early and
// late in the stream plus a corrupted periodic checkpoint, all
// recovered, must not change a single cost, counter or cached rule.
// Tree sizes stay well under Reference's 20-node ceiling — it
// enumerates 2^n changesets per paid request.
func TestChaosDifferentialStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const shards = 4
	sizes := [shards]int{14, 13, 12, 9}
	trees := make([]*tree.Tree, shards)
	cfgs := make([]core.MutableConfig, shards)
	injs := make([]*faultinject.Injector, shards)
	for i := range trees {
		trees[i] = buildTree(i, sizes[i])
		cfgs[i] = core.MutableConfig{Config: core.Config{
			Alpha:    int64(2 * (1 + i%3)),
			Capacity: 1 + sizes[i]/2,
		}}
		injs[i] = faultinject.NewInjector()
	}
	// Shard 0: panic at request 17 (mid-batch, early). Shard 1: panic
	// at request 150 (several checkpoints in). Shard 2: the first
	// periodic capture is corrupted — the verifier must reject it —
	// and a later panic recovers from the older checkpoint with a
	// longer journal replay. Shard 3: no faults (control).
	injs[0].Arm(faultinject.ServeRequest, 17)
	injs[1].Arm(faultinject.ServeRequest, 150)
	injs[2].Arm(faultinject.Checkpoint, 2) // capture 1 is the initial checkpoint
	injs[2].Arm(faultinject.ServeRequest, 60)

	eng := engine.New(engine.Config{
		Shards:          shards,
		QueueLen:        4,
		CheckpointEvery: 3,
		NewShard: func(i int) engine.Algorithm {
			m := core.NewMutable(trees[i], cfgs[i])
			return faultinject.Wrap(snapshot.Checkpointed{MutableTC: m}, injs[i])
		},
	})
	defer eng.Close()

	traces := make([]trace.Trace, shards)
	for i := range traces {
		traces[i] = randTrace(rng, sizes[i], 200+rng.Intn(200))
	}
	const batchLen = 32
	for i, tr := range traces {
		for pos := 0; pos < len(tr); pos += batchLen {
			end := pos + batchLen
			if end > len(tr) {
				end = len(tr)
			}
			if err := eng.Submit(i, tr[pos:end]); err != nil {
				t.Fatalf("submit shard %d: %v", i, err)
			}
		}
	}
	eng.Drain()

	st := eng.Stats()
	if st.Restarts != 3 {
		t.Fatalf("restarts = %d, want 3 (one per armed panic)", st.Restarts)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0: no accepted batch may be lost", st.Dropped)
	}
	if st.Shards[2].CkptErrs == 0 {
		t.Fatalf("shard 2 reported no checkpoint errors; the corrupted capture was accepted")
	}
	if got := injs[2].Fired(faultinject.Checkpoint); got != 1 {
		t.Fatalf("checkpoint fault fired %d times, want 1", got)
	}
	for i := range traces {
		if got := st.Shards[i].Rounds; got != int64(len(traces[i])) {
			t.Fatalf("shard %d served %d rounds, want %d", i, got, len(traces[i]))
		}
	}

	for i := range traces {
		ref := core.NewReference(trees[i], cfgs[i].Config)
		for _, req := range traces[i] {
			ref.Serve(req)
		}
		m := unwrap(t, eng.Algorithm(i))
		if m.Ledger() != ref.Ledger() {
			t.Fatalf("shard %d: ledger %+v, sequential reference %+v", i, m.Ledger(), ref.Ledger())
		}
		for v := 0; v < sizes[i]; v++ {
			id := tree.NodeID(v)
			if m.Cached(id) != ref.Cached(id) {
				t.Fatalf("shard %d: cached flag of node %d diverged", i, v)
			}
			if m.Counter(id) != ref.Counter(id) {
				t.Fatalf("shard %d: counter of node %d: fleet %d, reference %d", i, v, m.Counter(id), ref.Counter(id))
			}
		}
	}
}

// TestChaosDifferentialChurn drives one supervised shard through
// interleaved batches and topology mutations with faults landing
// mid-batch, mid-churn and on a checkpoint capture, then compares the
// full observable state against an unfaulted sequential instance.
func TestChaosDifferentialChurn(t *testing.T) {
	base := tree.CompleteKary(12, 2)
	cfg := core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 6}}
	rng := rand.New(rand.NewSource(23))

	// Script: alternating request batches and single-mutation control
	// messages, all against stable ids tracked by a local shadow.
	type event struct {
		batch trace.Trace
		mut   trace.Mutation
		isMut bool
	}
	live := make([]bool, 12)
	kids := make([]int, 12)
	parent := make([]tree.NodeID, 12)
	for i := range live {
		live[i] = true
		v := tree.NodeID(i)
		kids[i] = base.Degree(v)
		parent[i] = base.Parent(v)
	}
	pickLive := func() tree.NodeID {
		for {
			v := rng.Intn(len(live))
			if live[v] {
				return tree.NodeID(v)
			}
		}
	}
	var script []event
	for i := 0; i < 40; i++ {
		batch := make(trace.Trace, 5+rng.Intn(20))
		for j := range batch {
			k := trace.Positive
			if rng.Intn(3) == 0 {
				k = trace.Negative
			}
			batch[j] = trace.Request{Node: pickLive(), Kind: k}
		}
		script = append(script, event{batch: batch})
		switch rng.Intn(3) {
		case 0:
			p := pickLive()
			node := tree.NodeID(len(live)) // stable ids are sequential
			script = append(script, event{mut: trace.InsertMut(node, p), isMut: true})
			live = append(live, true)
			kids = append(kids, 0)
			parent = append(parent, p)
			kids[p]++
		case 1:
			// Withdraw a live non-root leaf, if one exists.
			for try := 0; try < 50; try++ {
				v := 1 + rng.Intn(len(live)-1)
				if live[v] && kids[v] == 0 {
					script = append(script, event{mut: trace.DeleteMut(tree.NodeID(v)), isMut: true})
					live[v] = false
					kids[parent[v]]--
					break
				}
			}
		}
	}

	inj := faultinject.NewInjector()
	inj.Arm(faultinject.ServeRequest, 40)
	inj.Arm(faultinject.TopologyOp, 5)
	inj.Arm(faultinject.Checkpoint, 3)

	eng := engine.New(engine.Config{
		Shards:          1,
		QueueLen:        8,
		CheckpointEvery: 4,
		NewShard: func(int) engine.Algorithm {
			m := core.NewMutable(base, cfg)
			return faultinject.Wrap(snapshot.Checkpointed{MutableTC: m}, inj)
		},
	})
	defer eng.Close()

	seq := core.NewMutable(base, cfg)
	for _, ev := range script {
		if ev.isMut {
			if err := eng.ApplyTopology(0, []trace.Mutation{ev.mut}); err != nil {
				t.Fatalf("apply topology: %v", err)
			}
			if err := seq.Apply(ev.mut); err != nil {
				t.Fatalf("sequential apply: %v", err)
			}
			continue
		}
		if err := eng.Submit(0, ev.batch); err != nil {
			t.Fatalf("submit: %v", err)
		}
		seq.ServeBatch(ev.batch)
	}
	eng.Drain()

	st := eng.Stats()
	if st.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (mid-batch + mid-churn)", st.Restarts)
	}
	if st.Dropped != 0 || st.TopoErrs != 0 {
		t.Fatalf("dropped = %d topoErrs = %d, want 0/0", st.Dropped, st.TopoErrs)
	}
	if st.CkptErrs == 0 {
		t.Fatalf("corrupted capture was not rejected")
	}

	m := unwrap(t, eng.Algorithm(0))
	if m.Ledger() != seq.Ledger() {
		t.Fatalf("ledger %+v, sequential %+v", m.Ledger(), seq.Ledger())
	}
	if m.Round() != seq.Round() || m.Phase() != seq.Phase() || m.Pending() != seq.Pending() || m.Epoch() != seq.Epoch() {
		t.Fatalf("cursors diverged: round %d/%d phase %d/%d pending %d/%d epoch %d/%d",
			m.Round(), seq.Round(), m.Phase(), seq.Phase(), m.Pending(), seq.Pending(), m.Epoch(), seq.Epoch())
	}
	da, db := m.Dyn(), seq.Dyn()
	if da.NumIDs() != db.NumIDs() || da.Len() != db.Len() {
		t.Fatalf("id space diverged: %d/%d ids, %d/%d live", da.NumIDs(), db.NumIDs(), da.Len(), db.Len())
	}
	for s := 0; s < da.NumIDs(); s++ {
		v := tree.NodeID(s)
		if da.Live(v) != db.Live(v) {
			t.Fatalf("liveness of %d diverged", s)
		}
		if !da.Live(v) {
			continue
		}
		if m.Cached(v) != seq.Cached(v) || m.Counter(v) != seq.Counter(v) {
			t.Fatalf("node %d diverged: cached %v/%v counter %d/%d",
				s, m.Cached(v), seq.Cached(v), m.Counter(v), seq.Counter(v))
		}
	}
	got, want := m.CacheMembers(), seq.CacheMembers()
	if len(got) != len(want) {
		t.Fatalf("cache members diverged: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cache members diverged: %v vs %v", got, want)
		}
	}
}

// TestChaosRejectedDrainCheckpoint: Drain hands every batch submitted
// before it back to the caller, even when the drain-point capture is
// rejected and the batch stays in the recovery journal. A later fault
// must then replay what was served, not what the caller has since
// written into the slice.
func TestChaosRejectedDrainCheckpoint(t *testing.T) {
	base := tree.CompleteKary(63, 2)
	cfg := core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 16}}
	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Checkpoint, 2) // capture 1 is the initial checkpoint, 2 the Drain's
	eng := engine.New(engine.Config{
		Shards: 1,
		NewShard: func(int) engine.Algorithm {
			m := core.NewMutable(base, cfg)
			return faultinject.Wrap(snapshot.Checkpointed{MutableTC: m}, inj)
		},
	})
	defer eng.Close()

	rng := rand.New(rand.NewSource(41))
	seq := core.NewMutable(base, cfg)
	batch := randTrace(rng, base.Len(), 200)
	seq.ServeBatch(batch)
	if err := eng.Submit(0, batch); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if st := eng.Stats(); st.CkptErrs != 1 || st.Checkpoints != 1 {
		t.Fatalf("checkpoints %d, rejected %d: want the drain capture rejected after the initial one", st.Checkpoints, st.CkptErrs)
	}

	// The batch is the caller's again: reuse it for different traffic
	// and serve it once more, with a mid-batch fault forcing a restore
	// from the initial checkpoint and a replay of the journal.
	copy(batch, randTrace(rng, base.Len(), len(batch)))
	seq.ServeBatch(batch)
	inj.Arm(faultinject.ServeRequest, 10)
	if err := eng.Submit(0, batch); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if st := eng.Stats(); st.Restarts != 1 || st.Dropped != 0 {
		t.Fatalf("restarts %d dropped %d, want 1/0", st.Restarts, st.Dropped)
	}
	if got, want := unwrap(t, eng.Algorithm(0)).Ledger(), seq.Ledger(); got != want {
		t.Fatalf("recovered ledger %+v, sequential replay %+v", got, want)
	}
}

// TestChaosBackpressure stalls a shard mid-serve and checks the
// bounded-backpressure surface: TrySubmit sheds with ErrOverloaded,
// SubmitCtx respects its deadline, and after Release every accepted
// batch is served exactly once.
func TestChaosBackpressure(t *testing.T) {
	base := tree.CompleteKary(15, 2)
	cfg := core.MutableConfig{Config: core.Config{Alpha: 2, Capacity: 5}}
	inj := faultinject.NewInjector()
	inj.Arm(faultinject.Stall, 1)

	eng := engine.New(engine.Config{
		Shards:   1,
		QueueLen: 2,
		NewShard: func(int) engine.Algorithm {
			m := core.NewMutable(base, cfg)
			return faultinject.Wrap(snapshot.Checkpointed{MutableTC: m}, inj)
		},
	})
	defer eng.Close()

	rng := rand.New(rand.NewSource(5))
	batch := randTrace(rng, 15, 16)
	if err := eng.Submit(0, batch); err != nil { // picked up, then stalls
		t.Fatal(err)
	}
	for inj.Fired(faultinject.Stall) == 0 {
		time.Sleep(time.Millisecond)
	}
	accepted := int64(len(batch))
	// Fill the queue behind the stalled batch.
	for i := 0; i < 2; i++ {
		if err := eng.Submit(0, batch); err != nil {
			t.Fatal(err)
		}
		accepted += int64(len(batch))
	}
	if err := eng.TrySubmit(0, batch); !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("TrySubmit on a full queue: %v, want ErrOverloaded", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := eng.SubmitCtx(ctx, 0, batch); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitCtx on a full queue: %v, want DeadlineExceeded", err)
	}
	if d := eng.Stats().Shards[0].QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}

	inj.Release()
	eng.Drain()
	st := eng.Stats()
	if st.Rounds != accepted {
		t.Fatalf("served %d rounds, want exactly the %d accepted", st.Rounds, accepted)
	}
	if st.Shards[0].QueueDepth != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", st.Shards[0].QueueDepth)
	}
	if err := eng.TrySubmit(0, batch); err != nil {
		t.Fatalf("TrySubmit after release: %v", err)
	}
	eng.Drain()
}
