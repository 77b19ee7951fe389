// Package sim drives online tree-caching algorithms over request
// traces and collects cost metrics. It defines the Algorithm interface
// that TC, the baselines and replayed offline solutions all implement,
// plus helpers for adaptive (adversarial) inputs and side-by-side runs.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Algorithm is an online tree-caching algorithm. One request is served
// per round; the implementation reorganizes its cache at the end of the
// round, subject to the subforest and capacity constraints.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Serve processes one request and returns the serving cost (0 or 1)
	// and the movement cost (α times nodes moved) of the round.
	Serve(req trace.Request) (serveCost, moveCost int64)
	// Cached reports whether v is currently in the cache. Adaptive
	// adversaries use this.
	Cached(v tree.NodeID) bool
	// CacheLen returns the current cache occupancy.
	CacheLen() int
	// Ledger returns the accumulated costs.
	Ledger() cache.Ledger
	// Reset restores the initial (empty cache, zero cost) state.
	Reset()
}

// Result summarises one run.
type Result struct {
	Algorithm string
	Rounds    int64
	Serve     int64 // total serving cost (paid requests)
	Move      int64 // total movement cost (α per node moved)
	Fetched   int64 // nodes fetched
	Evicted   int64 // nodes evicted
	MaxCache  int   // peak cache occupancy observed
}

// Total returns Serve + Move.
func (r Result) Total() int64 { return r.Serve + r.Move }

// String renders a compact summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: total=%d serve=%d move=%d fetched=%d evicted=%d rounds=%d",
		r.Algorithm, r.Total(), r.Serve, r.Move, r.Fetched, r.Evicted, r.Rounds)
}

// Run serves the whole trace on a (its state is NOT reset first, so
// runs can be chained; call a.Reset() for a fresh run).
func Run(a Algorithm, tr trace.Trace) Result {
	res := Result{Algorithm: a.Name()}
	for _, req := range tr {
		a.Serve(req)
		res.Rounds++
		if c := a.CacheLen(); c > res.MaxCache {
			res.MaxCache = c
		}
	}
	led := a.Ledger()
	res.Serve = led.Serve
	res.Move = led.Move
	res.Fetched = led.Fetched
	res.Evicted = led.Evicted
	return res
}

// Adversary generates the next request as a function of the current
// algorithm state; it returns ok=false when the input is exhausted.
type Adversary interface {
	Next(a Algorithm) (req trace.Request, ok bool)
}

// RunAdversarial drives a with requests produced adaptively by adv and
// returns both the result and the generated trace (so an offline
// optimum can be computed on the very same input).
func RunAdversarial(a Algorithm, adv Adversary) (Result, trace.Trace) {
	res := Result{Algorithm: a.Name()}
	var tr trace.Trace
	for {
		req, ok := adv.Next(a)
		if !ok {
			break
		}
		tr = append(tr, req)
		a.Serve(req)
		res.Rounds++
		if c := a.CacheLen(); c > res.MaxCache {
			res.MaxCache = c
		}
	}
	led := a.Ledger()
	res.Serve = led.Serve
	res.Move = led.Move
	res.Fetched = led.Fetched
	res.Evicted = led.Evicted
	return res, tr
}

// Compare runs each algorithm on its own copy of the trace (each is
// Reset first) and returns the results in the same order.
func Compare(algos []Algorithm, tr trace.Trace) []Result {
	out := make([]Result, len(algos))
	for i, a := range algos {
		a.Reset()
		out[i] = Run(a, tr)
	}
	return out
}
