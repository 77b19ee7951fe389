package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// poisonAlgo is a minimal checkpointable algorithm for supervisor unit
// tests: serving the poison node always panics (a deterministic poison
// message, unlike the chaos suite's single-shot faults), and its whole
// observable state is one counter, so Snapshot/Restore are trivial.
type poisonAlgo struct {
	served int64
	led    cache.Ledger
	poison tree.NodeID
}

func (p *poisonAlgo) Name() string { return "poison" }

func (p *poisonAlgo) ServeBatch(batch trace.Trace) (int64, int64) {
	for _, req := range batch {
		if req.Node == p.poison {
			panic("poisonAlgo: poison request")
		}
		p.served++
		p.led.Serve++
	}
	return int64(len(batch)), 0
}

func (p *poisonAlgo) MaxCacheLen() int     { return 0 }
func (p *poisonAlgo) Round() int64         { return p.served }
func (p *poisonAlgo) Ledger() cache.Ledger { return p.led }

func (p *poisonAlgo) Snapshot() ([]byte, error) {
	return []byte(fmt.Sprintf("%d %d", p.served, p.led.Serve)), nil
}

func (p *poisonAlgo) Restore(data []byte) error {
	var served, serve int64
	if _, err := fmt.Sscanf(string(data), "%d %d", &served, &serve); err != nil {
		return err
	}
	p.served, p.led.Serve = served, serve
	return nil
}

// TestSupervisedPoisonDropped: a message that panics on every retry is
// dropped after the bounded retry budget, with the shard state rolled
// back to exclude it, and the shard keeps serving afterwards.
func TestSupervisedPoisonDropped(t *testing.T) {
	eng := engine.New(engine.Config{
		Shards:          1,
		QueueLen:        4,
		CheckpointEvery: 2,
		NewShard:        func(int) engine.Algorithm { return &poisonAlgo{poison: 99} },
	})
	defer eng.Close()
	if !eng.Supervised(0) {
		t.Fatal("checkpointable shard is not supervised")
	}

	good := trace.Trace{{Node: 1}, {Node: 2}, {Node: 3}}
	bad := trace.Trace{{Node: 4}, {Node: 99}, {Node: 5}}
	if err := eng.Submit(0, good); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(0, bad); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(0, good); err != nil {
		t.Fatal(err)
	}
	eng.Drain()

	st := eng.Stats().Shards[0]
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	if st.Restarts != 3 {
		t.Fatalf("restarts = %d, want 3 (one per retry of the poison batch)", st.Restarts)
	}
	if st.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6 (two good batches; the poison batch is not counted)", st.Rounds)
	}
	// The rolled-back state must exclude every request of the dropped
	// batch, including the prefix served before the first panic.
	if st.Serve != 6 {
		t.Fatalf("serve cost = %d, want 6: dropped batch leaked into the ledger", st.Serve)
	}
	algo := eng.Algorithm(0).(*poisonAlgo)
	if algo.served != 6 {
		t.Fatalf("algorithm served %d requests, want 6", algo.served)
	}
}

// capFailAlgo is a poisonAlgo whose Snapshot fails from its failFrom-th
// call on (1-based; 0 never fails).
type capFailAlgo struct {
	poisonAlgo
	calls, failFrom int
}

func (a *capFailAlgo) Snapshot() ([]byte, error) {
	a.calls++
	if a.failFrom > 0 && a.calls >= a.failFrom {
		return nil, errors.New("capFailAlgo: capture failed")
	}
	return a.poisonAlgo.Snapshot()
}

// TestSupervisionJournalBounded: a shard whose captures keep failing
// retries them once per cadence, not after every message, and journals
// at most four cadences of messages: then it drops the journal and its
// recovery point and serves unsupervised, journaling nothing, until a
// capture is accepted again, which re-arms supervision.
func TestSupervisionJournalBounded(t *testing.T) {
	const every, batches = 4, 1000
	for _, tc := range []struct {
		name     string
		failFrom int
		// errs counts the failed captures: the retries at every
		// cadence multiple, the drain's, and a failed initial one.
		errs, drops int64
	}{
		// No recovery point ever: nothing to journal, nothing to drop.
		{"always", 1, 1 + batches/every + 1, 0},
		// The initial capture is accepted, the next four fail, and the
		// shard drops the 15 journaled messages with its recovery point.
		{"after the first", 2, batches/every + 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			algo := &capFailAlgo{poisonAlgo: poisonAlgo{poison: 99}, failFrom: tc.failFrom}
			eng := engine.New(engine.Config{
				Shards:          1,
				CheckpointEvery: every,
				NewShard:        func(int) engine.Algorithm { return algo },
			})
			defer eng.Close()
			good := trace.Trace{{Node: 1}, {Node: 2}}
			for i := 0; i < batches; i++ {
				if err := eng.Submit(0, good); err != nil {
					t.Fatal(err)
				}
			}
			eng.Drain()
			st := eng.Stats().Shards[0]
			if st.CkptErrs != tc.errs || st.JournalDrops != tc.drops {
				t.Fatalf("%d failed captures, %d journal drops; want %d and %d",
					st.CkptErrs, st.JournalDrops, tc.errs, tc.drops)
			}
			if n := engine.JournalLen(eng, 0); n != 0 {
				t.Fatalf("journal holds %d messages after %d failed cadences, want 0", n, batches/every)
			}
			if st.Rounds != 2*batches {
				t.Fatalf("rounds = %d, want %d", st.Rounds, 2*batches)
			}

			// Captures work again: the drain's is accepted and re-arms
			// supervision, so a poison batch is dropped after its
			// retries instead of crashing the process.
			algo.failFrom = 0
			eng.Drain()
			if err := eng.Submit(0, trace.Trace{{Node: 3}, {Node: 99}}); err != nil {
				t.Fatal(err)
			}
			eng.Drain()
			st = eng.Stats().Shards[0]
			if st.Restarts != 3 || st.Dropped != 1 || st.Rounds != 2*batches {
				t.Fatalf("after re-arming: %d restarts, %d dropped, %d rounds; want 3, 1 and %d",
					st.Restarts, st.Dropped, st.Rounds, 2*batches)
			}
		})
	}
}

// TestRatioMonitorSupervisedPooledBatches: on a supervised shard whose
// cadence capture follows every message, the ratio monitor still reads
// each SubmitMulti batch before its pooled buffer returns to the free
// list, where the dispatcher refills it. Run under -race.
func TestRatioMonitorSupervisedPooledBatches(t *testing.T) {
	trees := fleet(2)
	cfg := core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 16}}
	monitors := make([]*metrics.RatioMonitor, len(trees))
	for i, tr := range trees {
		monitors[i] = metrics.NewRatioMonitor(metrics.RatioConfig{Tree: tr, Alpha: 4, Capacity: 16, Window: 64})
	}
	eng := engine.New(engine.Config{
		Shards:          len(trees),
		CheckpointEvery: 1,
		NewShard: func(i int) engine.Algorithm {
			return snapshot.Checkpointed{MutableTC: core.NewMutable(trees[i], cfg)}
		},
		RatioMonitors: monitors,
	})
	defer eng.Close()
	mt := trace.MultiTenant(rand.New(rand.NewSource(7)), trees, trace.MultiTenantConfig{
		Rounds: 1 << 12, TenantS: 0, NodeS: 1.0, NegFrac: 0.2,
	})
	for round := 0; round < 4; round++ {
		if err := eng.SubmitMulti(mt, 16); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	for i, m := range monitors {
		if m.Windows() == 0 {
			t.Fatalf("shard %d's monitor scored no window", i)
		}
	}
	if st := eng.Stats(); st.Rounds != 4<<12 {
		t.Fatalf("rounds = %d, want %d", st.Rounds, 4<<12)
	}
}

// TestSupervisionOptOut: a negative CheckpointEvery disables
// supervision even for a Checkpointer algorithm.
func TestSupervisionOptOut(t *testing.T) {
	eng := engine.New(engine.Config{
		Shards:          1,
		CheckpointEvery: -1,
		NewShard:        func(int) engine.Algorithm { return &poisonAlgo{poison: 99} },
	})
	defer eng.Close()
	if eng.Supervised(0) {
		t.Fatal("shard supervised despite CheckpointEvery < 0")
	}
}

// TestCheckpointCadence: a supervised MutableTC shard checkpoints at
// the configured cadence and at drain points, with clean captures.
func TestCheckpointCadence(t *testing.T) {
	base := tree.CompleteKary(31, 2)
	eng := engine.New(engine.Config{
		Shards:          1,
		QueueLen:        8,
		CheckpointEvery: 1,
		NewShard: func(int) engine.Algorithm {
			m := core.NewMutable(base, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 10}})
			return snapshot.Checkpointed{MutableTC: m}
		},
	})
	defer eng.Close()

	batch := trace.Trace{{Node: 7, Kind: trace.Positive}, {Node: 12, Kind: trace.Positive}}
	const batches = 5
	for i := 0; i < batches; i++ {
		if err := eng.Submit(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	st := eng.Stats().Shards[0]
	// One initial capture plus one per served message at cadence 1.
	if want := int64(batches + 1); st.Checkpoints != want {
		t.Fatalf("checkpoints = %d, want %d", st.Checkpoints, want)
	}
	if st.CkptErrs != 0 {
		t.Fatalf("checkpoint errors = %d, want 0", st.CkptErrs)
	}
	if st.Restarts != 0 || st.Dropped != 0 {
		t.Fatalf("restarts/dropped = %d/%d, want 0/0", st.Restarts, st.Dropped)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", st.QueueDepth)
	}
}

// TestCheckpointFullCaptures pins the full-capture count of a
// supervised MutableTC shard at cadence 1: captures after small batches
// cost what changed, and the first capture, a rebuild (a lifting
// withdrawal) and a phase end each make exactly one full capture.
func TestCheckpointFullCaptures(t *testing.T) {
	base := tree.CompleteKary(255, 2) // leaves 127..254
	eng := engine.New(engine.Config{
		Shards:          1,
		CheckpointEvery: 1,
		NewShard: func(int) engine.Algorithm {
			m := core.NewMutable(base, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 4}})
			return snapshot.Checkpointed{MutableTC: m}
		},
	})
	defer eng.Close()
	leaf := tree.NodeID(127)
	small := func(n int) { // n batches of two requests to fresh leaves: no fetch
		for i := 0; i < n; i++ {
			if err := eng.Submit(0, trace.Trace{trace.Pos(leaf), trace.Pos(leaf + 1)}); err != nil {
				t.Fatal(err)
			}
			leaf += 2
		}
	}
	check := func(step string, checkpoints, full int64) {
		t.Helper()
		eng.Drain()
		st := eng.Stats().Shards[0]
		if st.Checkpoints != checkpoints || st.CkptFull != full || st.CkptErrs != 0 {
			t.Fatalf("%s: checkpoints %d, full %d, errors %d; want %d, %d, 0",
				step, st.Checkpoints, st.CkptFull, st.CkptErrs, checkpoints, full)
		}
	}
	small(6)
	check("small batches", 7, 1)
	if err := eng.ApplyTopology(0, []trace.Mutation{trace.DeleteMut(1)}); err != nil {
		t.Fatal(err)
	}
	small(2)
	check("after a rebuild", 10, 2)
	// Five leaves α requests each: the fifth fetch overflows capacity 4.
	var overflow trace.Trace
	for i := 0; i < 5; i++ {
		for k := 0; k < 4; k++ {
			overflow = append(overflow, trace.Pos(leaf))
		}
		leaf++
	}
	if err := eng.Submit(0, overflow); err != nil {
		t.Fatal(err)
	}
	small(2)
	check("after a phase end", 13, 3)
}

// TestEngineCheckpoint pins the durable capture rule: every blob passed
// verification and restores the shard's state; a supervised shard with
// an empty journal hands back its last accepted capture instead of
// taking another, an unsupervised one captures once per call; and one
// rejected capture fails the whole call.
func TestEngineCheckpoint(t *testing.T) {
	base := tree.CompleteKary(31, 2)
	batch := trace.Trace{{Node: 7, Kind: trace.Positive}, {Node: 12, Kind: trace.Positive}}
	for _, tc := range []struct {
		name  string
		every int
		// captures is what one Checkpoint with nothing journaled
		// costs each shard.
		captures int64
	}{{"supervised", 64, 0}, {"unsupervised", -1, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			injs := []*faultinject.Injector{faultinject.NewInjector(), faultinject.NewInjector()}
			eng := engine.New(engine.Config{
				Shards:          2,
				CheckpointEvery: tc.every,
				NewShard: func(i int) engine.Algorithm {
					m := core.NewMutable(base, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 10}})
					return faultinject.Wrap(snapshot.Checkpointed{MutableTC: m}, injs[i])
				},
			})
			defer eng.Close()
			submit := func() {
				t.Helper()
				for i := range injs {
					if err := eng.Submit(i, batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			submit()
			eng.Drain()
			before := eng.Stats()
			blobs, err := eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			after := eng.Stats()
			for i, blob := range blobs {
				if got := after.Shards[i].Checkpoints - before.Shards[i].Checkpoints; got != tc.captures {
					t.Errorf("shard %d: Checkpoint took %d captures, want %d", i, got, tc.captures)
				}
				m, err := snapshot.Restore(blob)
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				if want := eng.Algorithm(i).Ledger(); m.Ledger() != want {
					t.Errorf("shard %d: blob ledger %+v, want %+v", i, m.Ledger(), want)
				}
			}

			injs[1].Arm(faultinject.Checkpoint, 1)
			submit()
			if blobs, err := eng.Checkpoint(); err == nil || blobs != nil {
				t.Fatalf("Checkpoint with a corrupted capture = %d blobs, %v; want an error", len(blobs), err)
			}
			if st := eng.Stats().Shards[1]; st.CkptErrs != 1 {
				t.Fatalf("shard 1 rejected %d captures, want 1", st.CkptErrs)
			}
			if _, err := eng.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after the fault: %v", err)
			}
		})
	}

	t.Run("not a Checkpointer", func(t *testing.T) {
		eng := engine.New(engine.Config{
			Shards:   1,
			NewShard: func(int) engine.Algorithm { return core.New(base, core.Config{Alpha: 4, Capacity: 10}) },
		})
		if _, err := eng.Checkpoint(); err == nil {
			t.Fatal("Checkpoint of a shard without Checkpointer succeeded")
		}
		eng.Close()
		if _, err := eng.Checkpoint(); !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
		}
	})
}

// TestSubmitCloseRace: submissions racing Close get a clean nil or
// ErrClosed — never a send on a closed channel. Run under -race.
func TestSubmitCloseRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		eng := engine.New(engine.Config{
			Shards:   2,
			QueueLen: 2,
			NewShard: func(int) engine.Algorithm { return &poisonAlgo{poison: -1} },
		})
		batch := trace.Trace{{Node: 1}, {Node: 2}}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					var err error
					if g%2 == 0 {
						err = eng.Submit(g%2, batch)
					} else {
						err = eng.TrySubmit(g%2, batch)
					}
					if err != nil && !errors.Is(err, engine.ErrClosed) && !errors.Is(err, engine.ErrOverloaded) {
						t.Errorf("unexpected submit error: %v", err)
						return
					}
					if errors.Is(err, engine.ErrClosed) {
						return
					}
				}
			}(g)
		}
		eng.Close()
		wg.Wait()
		if err := eng.Submit(0, batch); !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("Submit after Close: %v, want ErrClosed", err)
		}
		eng.Drain() // must be a no-op, not a panic
	}
}
