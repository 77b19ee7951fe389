package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tree"
)

// TestEngineRace hammers one engine from many submitter goroutines
// while other goroutines poll Stats and Drain concurrently. It is the
// stress test behind the CI -race job: any serve-path data race, a
// torn stats publication, or a lost batch shows up here.
func TestEngineRace(t *testing.T) {
	const (
		tenants    = 4
		submitters = 8
		batches    = 30
		batchLen   = 50
	)
	trees := fleet(tenants)
	e := engine.New(engine.Config{
		Shards: tenants,
		NewShard: func(i int) engine.Algorithm {
			return core.New(trees[i], core.Config{Alpha: 4, Capacity: 1 + trees[i].Len()/2})
		},
		QueueLen: 8,
	})

	var submitted atomic.Int64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Concurrent readers: Stats must be safe, monotone, and every
	// per-shard snapshot internally consistent (snapshots are published
	// whole, so a torn read would break the accounting identity).
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.Stats()
				if st.Rounds < last {
					t.Error("stats went backwards")
					return
				}
				last = st.Rounds
				for _, ss := range st.Shards {
					if ss.Move != 4*(ss.Fetched+ss.Evicted) {
						t.Errorf("torn snapshot: shard %d Move=%d Fetched=%d Evicted=%d",
							ss.Shard, ss.Move, ss.Fetched, ss.Evicted)
						return
					}
					if ss.Serve > ss.Rounds || ss.MaxBatch > ss.BusyNs {
						t.Errorf("inconsistent snapshot: %+v", ss)
						return
					}
				}
			}
		}()
	}
	// A concurrent drainer: Drain during submission must not deadlock
	// or corrupt anything (it only bounds the work it covers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			e.Drain()
		}
	}()

	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(300 + seed))
			for b := 0; b < batches; b++ {
				shard := rng.Intn(tenants)
				batch := make(trace.Trace, batchLen)
				n := trees[shard].Len()
				for i := range batch {
					v := tree.NodeID(rng.Intn(n))
					if rng.Intn(2) == 0 {
						batch[i] = trace.Neg(v)
					} else {
						batch[i] = trace.Pos(v)
					}
				}
				if err := e.Submit(shard, batch); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted.Add(batchLen)
			}
		}(int64(s))
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	e.Drain()
	st := e.Stats()
	if st.Rounds != submitted.Load() {
		t.Fatalf("served %d rounds, submitted %d", st.Rounds, submitted.Load())
	}
	if st.Batches != submitters*batches {
		t.Fatalf("served %d batches, submitted %d", st.Batches, submitters*batches)
	}
	e.Close()
}

// slowServe wraps an algorithm so every request costs real wall time:
// the only way to reliably back a shard queue up so SubmitCtx contexts
// expire while blocked on the send.
type slowServe struct {
	engine.Algorithm
	delay time.Duration
}

func (s slowServe) ServeBatch(batch trace.Trace) (int64, int64) {
	time.Sleep(time.Duration(len(batch)) * s.delay)
	return s.Algorithm.ServeBatch(batch)
}

// TestSubmitCtxCloseRace closes the exactly-once coverage gap between
// SubmitCtx and Close: many submitters race short-deadline contexts
// against a full queue and a concurrent Close, and every submission
// must resolve to exactly one of {accepted, ctx.Err(), ErrClosed}.
// Accounting: an accepted batch is served exactly once even when Close
// lands while it is queued, and a context- or close-rejected batch is
// never served — pinned by requiring the final Rounds ledger to equal
// the accepted-request count exactly (a double-count or a lost batch
// both break the equality). Run under -race in CI.
func TestSubmitCtxCloseRace(t *testing.T) {
	const (
		submitters = 8
		perG       = 60
		batchLen   = 32
	)
	tr := tree.CompleteKary(127, 2)
	e := engine.New(engine.Config{
		Shards:   1,
		QueueLen: 1, // tiny queue: SubmitCtx genuinely blocks
		NewShard: func(i int) engine.Algorithm {
			return slowServe{
				Algorithm: core.New(tr, core.Config{Alpha: 4, Capacity: 32}),
				delay:     20 * time.Microsecond,
			}
		},
	})

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(900 + seed))
			for i := 0; i < perG; i++ {
				batch := make(trace.Trace, batchLen)
				for j := range batch {
					batch[j] = trace.Pos(tree.NodeID(rng.Intn(127)))
				}
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(600))*time.Microsecond)
				err := e.SubmitCtx(ctx, 0, batch)
				cancel()
				switch {
				case err == nil:
					accepted.Add(batchLen)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					// Rejected before enqueue: must never be served.
				case errors.Is(err, engine.ErrClosed):
					// Raced Close: must never be served.
				default:
					t.Errorf("SubmitCtx resolved to unexpected error: %v", err)
					return
				}
			}
		}(int64(g))
	}

	// Close lands mid-storm: roughly half the submissions race it.
	time.Sleep(2 * time.Millisecond)
	e.Close()
	wg.Wait()

	// After Close every submission must be cleanly rejected.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := e.SubmitCtx(ctx, 0, trace.Trace{trace.Pos(1)}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("post-Close SubmitCtx = %v, want ErrClosed", err)
	}

	st := e.Stats()
	if st.Rounds != accepted.Load() {
		t.Fatalf("served %d rounds but %d requests were accepted: lost or double-served work",
			st.Rounds, accepted.Load())
	}
	if led := e.Algorithm(0).Ledger(); led.Serve > accepted.Load() {
		t.Fatalf("ledger serve cost %d exceeds accepted requests %d", led.Serve, accepted.Load())
	}
}
