package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Reference is a brute-force implementation of TC that follows the
// Section 4 definition literally: after every paid request it
// enumerates all valid changesets, forms the union of the saturated
// ones (which is the unique saturated+maximal changeset — see the note
// below) and applies it. It exists purely to cross-validate the
// efficient implementation and to assert the Lemma 5.1 invariants; it
// is exponential in |T| and must only be used on small trees.
//
// Uniqueness note: the union of two valid positive (negative)
// changesets is valid, and the intersection is valid too (or empty),
// so with cnt(X1∪X2) = cnt(X1)+cnt(X2)−cnt(X1∩X2) and the invariant
// cnt(Y) ≤ |Y|·α for all valid Y, the union of saturated changesets is
// saturated. Hence the set of saturated valid changesets, if non-empty,
// has a unique maximal element: the union of them all.
type Reference struct {
	t     *tree.Tree
	cfg   Config
	cache *cache.Subforest
	led   cache.Ledger
	round int64
	phase int64
	cnt   []int64

	// nonCached and cached enumerate candidate ground sets per side.
	buf []tree.NodeID
}

// NewReference builds the reference algorithm. It panics for trees
// larger than 20 nodes (2^20 subsets per decision is the practical
// ceiling for tests).
func NewReference(t *tree.Tree, cfg Config) *Reference {
	if t.Len() > 20 {
		panic(fmt.Sprintf("core: Reference limited to 20 nodes, got %d", t.Len()))
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Reference{
		t:     t,
		cfg:   cfg,
		cache: cache.NewSubforest(t),
		led:   cache.Ledger{Alpha: cfg.Alpha},
		cnt:   make([]int64, t.Len()),
	}
}

// Name implements the sim.Algorithm interface.
func (r *Reference) Name() string { return "TC-reference" }

// Cached reports whether v is cached.
func (r *Reference) Cached(v tree.NodeID) bool { return r.cache.Contains(v) }

// CacheLen returns the cache occupancy.
func (r *Reference) CacheLen() int { return r.cache.Len() }

// CacheMembers returns the cached nodes in preorder.
func (r *Reference) CacheMembers() []tree.NodeID { return r.cache.Members() }

// Ledger returns accumulated costs.
func (r *Reference) Ledger() cache.Ledger { return r.led }

// Phase returns the number of completed phases.
func (r *Reference) Phase() int64 { return r.phase }

// Counter returns node v's counter.
func (r *Reference) Counter(v tree.NodeID) int64 { return r.cnt[v] }

// Reset restores the initial state.
func (r *Reference) Reset() {
	r.cache.Clear()
	r.led.Reset()
	r.round, r.phase = 0, 0
	for i := range r.cnt {
		r.cnt[i] = 0
	}
}

// Serve processes one request, mirroring TC.Serve's contract.
func (r *Reference) Serve(req trace.Request) (serveCost, moveCost int64) {
	r.round++
	v := req.Node
	cached := r.cache.Contains(v)
	paid := (req.Kind == trace.Positive && !cached) || (req.Kind == trace.Negative && cached)
	if !paid {
		return 0, 0
	}
	r.led.PayServe()
	r.cnt[v]++
	moveBefore := r.led.Move
	positive := req.Kind == trace.Positive
	x := r.maximalSaturated(positive)
	if len(x) > 0 {
		if positive {
			if r.cache.Len()+len(x) > r.cfg.Capacity {
				// Flush and start a new phase.
				evicted := r.cache.Clear()
				r.led.PayEvict(evicted)
				r.phase++
				for i := range r.cnt {
					r.cnt[i] = 0
				}
			} else {
				if err := r.cache.Fetch(x); err != nil {
					panic("core: reference: " + err.Error())
				}
				r.led.PayFetch(len(x))
				for _, w := range x {
					r.cnt[w] = 0
				}
			}
		} else {
			if err := r.cache.Evict(x); err != nil {
				panic("core: reference: " + err.Error())
			}
			r.led.PayEvict(len(x))
			for _, w := range x {
				r.cnt[w] = 0
			}
		}
	}
	return 1, r.led.Move - moveBefore
}

// AssertNoSaturated verifies Lemma 5.1 property 3: right after a
// request is settled, no valid changeset of either sign is saturated.
// Tests call it after every round.
func (r *Reference) AssertNoSaturated() error {
	for _, positive := range []bool{true, false} {
		if x := r.maximalSaturated(positive); len(x) > 0 {
			return fmt.Errorf("core: reference: saturated changeset survives application (positive=%v): %v", positive, x)
		}
	}
	return nil
}

// maximalSaturated returns the unique maximal saturated valid changeset
// of the requested sign, or nil if no valid changeset is saturated. It
// also asserts the Lemma 5.1 invariant cnt(X) ≤ |X|·α for every valid
// changeset X.
func (r *Reference) maximalSaturated(positive bool) []tree.NodeID {
	// Ground set: non-cached nodes for fetches, cached nodes for
	// evictions.
	ground := r.buf[:0]
	for v := 0; v < r.t.Len(); v++ {
		if r.cache.Contains(tree.NodeID(v)) != positive {
			ground = append(ground, tree.NodeID(v))
		}
	}
	r.buf = ground
	if len(ground) == 0 {
		return nil
	}
	alpha := r.cfg.Alpha
	var union map[tree.NodeID]bool
	sub := make([]tree.NodeID, 0, len(ground))
	for mask := 1; mask < 1<<len(ground); mask++ {
		sub = sub[:0]
		var c int64
		for i, v := range ground {
			if mask&(1<<i) != 0 {
				sub = append(sub, v)
				c += r.cnt[v]
			}
		}
		var valid bool
		if positive {
			valid = r.cache.ValidPositive(sub)
		} else {
			valid = r.cache.ValidNegative(sub)
		}
		if !valid {
			continue
		}
		if c > int64(len(sub))*alpha {
			panic(fmt.Sprintf("core: reference: Lemma 5.1 violated: cnt(X)=%d > %d = |X|·α for X=%v",
				c, int64(len(sub))*alpha, sub))
		}
		if c == int64(len(sub))*alpha {
			if union == nil {
				union = make(map[tree.NodeID]bool)
			}
			for _, v := range sub {
				union[v] = true
			}
		}
	}
	if union == nil {
		return nil
	}
	out := make([]tree.NodeID, 0, len(union))
	for _, v := range r.t.Preorder() {
		if union[v] {
			out = append(out, v)
		}
	}
	// The union of saturated valid changesets must itself be valid and
	// saturated; assert it.
	var c int64
	for _, v := range out {
		c += r.cnt[v]
	}
	okValid := false
	if positive {
		okValid = r.cache.ValidPositive(out)
	} else {
		okValid = r.cache.ValidNegative(out)
	}
	if !okValid || c != int64(len(out))*alpha {
		panic(fmt.Sprintf("core: reference: union of saturated changesets invalid or unsaturated (cnt=%d, want %d, valid=%v)",
			c, int64(len(out))*alpha, okValid))
	}
	return out
}
