package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
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
