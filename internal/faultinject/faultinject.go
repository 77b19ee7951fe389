// Package faultinject is a deterministic fault-injection harness for
// the sharded serving engine: it wraps a checkpointable algorithm and
// fires pre-planned faults — a panic at the Nth served request or Nth
// topology mutation, a corrupted snapshot blob at the Nth checkpoint
// capture, a stalled shard — at exact, reproducible points. The chaos
// differential suite drives a supervised engine through these faults
// and pins the recovered fleet to the sequential oracle: determinism
// is what turns "crash somewhere and hope" into an assertable
// equivalence.
//
// Faults are single-shot: an armed point fires once and disarms, which
// models a transient fault the supervisor's bounded retry recovers
// from (the retry re-serves the message with the trigger already
// consumed). Re-arm between operations to model repeated faults.
package faultinject

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Point identifies a class of fault site inside the wrapped algorithm.
type Point int

const (
	// ServeRequest panics immediately before serving the Nth request
	// (counted across batches; a batch is split so the prefix before
	// the fault is genuinely served, leaving mid-batch partial state).
	ServeRequest Point = iota
	// TopologyOp panics immediately before applying the Nth topology
	// mutation, leaving a mid-churn partial state.
	TopologyOp
	// Checkpoint corrupts the blob returned by the Nth Snapshot
	// capture (one flipped byte), exercising the supervisor's
	// verification-reject path.
	Checkpoint
	// Stall blocks the Nth batch serve until Release is called,
	// backing the shard's queue up for backpressure tests.
	Stall
	numPoints = iota
)

func (p Point) String() string {
	switch p {
	case ServeRequest:
		return "serve-request"
	case TopologyOp:
		return "topology-op"
	case Checkpoint:
		return "checkpoint"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Injected is the panic value raised at a fired fault point, so tests
// (and the engine's recover) can tell an injected fault from a real
// bug escaping the algorithm.
type Injected struct {
	P Point
	N int // the 1-based unit the fault fired at
}

func (i Injected) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s #%d", i.P, i.N)
}

// Injector is a deterministic fault plan for one shard. All methods
// are safe for concurrent use (the test goroutine arms and inspects
// while the shard worker consumes).
type Injector struct {
	mu      sync.Mutex
	armed   [numPoints]bool
	remain  [numPoints]int // units left before the armed fault fires
	seen    [numPoints]int // units processed (fired or not)
	fired   [numPoints]int
	release chan struct{}
}

// NewInjector returns an injector with no faults armed.
func NewInjector() *Injector {
	return &Injector{release: make(chan struct{})}
}

// Arm schedules the fault at point p to fire at the nth unit (n >= 1)
// processed from now on: the (n-1) preceding units complete normally.
// Arming a point replaces any previous plan for it.
func (in *Injector) Arm(p Point, n int) {
	if n < 1 {
		panic(fmt.Sprintf("faultinject: Arm(%s, %d): n must be >= 1", p, n))
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed[p] = true
	in.remain[p] = n - 1
}

// Fired returns how many times point p has fired.
func (in *Injector) Fired(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// Seen returns how many units point p has processed (fired or not).
func (in *Injector) Seen(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen[p]
}

// Release opens the stall gate: every past and future Stall fault
// returns immediately. Idempotent.
func (in *Injector) Release() {
	in.mu.Lock()
	defer in.mu.Unlock()
	select {
	case <-in.release:
	default:
		close(in.release)
	}
}

// plan consumes n units at point p and returns how many complete
// before the fault (k == n when nothing fires) and whether the fault
// fires after those k units.
func (in *Injector) plan(p Point, n int) (k int, fire bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed[p] || in.remain[p] >= n {
		if in.armed[p] {
			in.remain[p] -= n
		}
		in.seen[p] += n
		return n, false
	}
	k = in.remain[p]
	in.armed[p] = false
	in.seen[p] += k
	in.fired[p]++
	return k, true
}

// Inner is the algorithm surface the wrapper needs: the engine's
// batched Algorithm plus topology mutation and checkpointing
// (snapshot.Checkpointed over a core.MutableTC satisfies it).
type Inner interface {
	engine.Algorithm
	engine.TopologyServer
	engine.Checkpointer
}

// Algo wraps an Inner algorithm with an Injector's fault plan. It
// exposes the same optional engine interfaces as the Inner, so a
// wrapped shard is supervised and mutable exactly like an unwrapped
// one — faults are the only difference.
type Algo struct {
	Inner Inner
	Inj   *Injector
}

var _ Inner = (*Algo)(nil)
var _ engine.SnapshotVerifier = (*Algo)(nil)
var _ engine.FullExporter = (*Algo)(nil)

// Wrap pairs an algorithm with a fault plan.
func Wrap(inner Inner, inj *Injector) *Algo { return &Algo{Inner: inner, Inj: inj} }

func (a *Algo) Name() string { return a.Inner.Name() }

// Ledger, MaxCacheLen and Round are pure reads: no fault sites.
func (a *Algo) Ledger() cache.Ledger { return a.Inner.Ledger() }
func (a *Algo) MaxCacheLen() int     { return a.Inner.MaxCacheLen() }
func (a *Algo) Round() int64         { return a.Inner.Round() }

// ServeBatch serves the prefix before an armed ServeRequest fault for
// real — the panic interrupts a half-served batch, the hardest state
// for recovery to reproduce — then panics. The Stall gate, when it
// fires, blocks the whole batch until Release.
func (a *Algo) ServeBatch(batch trace.Trace) (int64, int64) {
	if _, fire := a.Inj.plan(Stall, 1); fire {
		<-a.Inj.release
	}
	k, fire := a.Inj.plan(ServeRequest, len(batch))
	var s, m int64
	if k > 0 {
		s, m = a.Inner.ServeBatch(batch[:k])
	}
	if fire {
		panic(Injected{P: ServeRequest, N: a.Inj.Seen(ServeRequest) + 1})
	}
	return s, m
}

// ApplyTopology applies the prefix before an armed TopologyOp fault,
// then panics mid-churn.
func (a *Algo) ApplyTopology(muts []trace.Mutation) error {
	k, fire := a.Inj.plan(TopologyOp, len(muts))
	if k > 0 {
		if err := a.Inner.ApplyTopology(muts[:k]); err != nil {
			return err
		}
	}
	if fire {
		panic(Injected{P: TopologyOp, N: a.Inj.Seen(TopologyOp) + 1})
	}
	return nil
}

// Snapshot captures the inner state, flipping one byte of the blob
// when the armed Checkpoint fault fires — the supervisor's verifier
// must reject it and keep the previous good checkpoint.
func (a *Algo) Snapshot() ([]byte, error) {
	blob, err := a.Inner.Snapshot()
	if err != nil {
		return nil, err
	}
	if _, fire := a.Inj.plan(Checkpoint, 1); fire && len(blob) > 0 {
		blob = append([]byte(nil), blob...)
		blob[len(blob)/2] ^= 0xff
	}
	return blob, err
}

func (a *Algo) Restore(data []byte) error { return a.Inner.Restore(data) }

// FullExports forwards to the inner algorithm's count, 0 when it keeps
// none.
func (a *Algo) FullExports() int64 {
	if f, ok := a.Inner.(engine.FullExporter); ok {
		return f.FullExports()
	}
	return 0
}

// VerifySnapshot forwards to the inner verifier when there is one.
func (a *Algo) VerifySnapshot(data []byte) error {
	if v, ok := a.Inner.(engine.SnapshotVerifier); ok {
		return v.VerifySnapshot(data)
	}
	return nil
}
