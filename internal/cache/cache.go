// Package cache implements the subforest cache of the online tree
// caching problem (Bienkowski et al., SPAA 2017, Section 3).
//
// A cache over a tree T must at all times be a subforest of T: if a node
// v is cached, the whole subtree T(v) is cached too. The package provides
// O(1) membership, changeset validation (valid positive / negative
// changesets as defined in the paper), application of changesets, and a
// cost ledger charging α per node fetched or evicted.
package cache

import (
	"fmt"

	"repro/internal/tree"
)

// Ledger accumulates the two cost components of the model: the serving
// cost (1 per paid request) and the movement cost (α per node fetched or
// evicted).
type Ledger struct {
	// Alpha is the per-node fetch/evict cost α ≥ 1.
	Alpha int64
	// Serve is the total serving cost paid so far.
	Serve int64
	// Move is the total reorganization cost paid so far.
	Move int64
	// Fetched and Evicted count individual node fetches/evictions.
	Fetched int64
	Evicted int64
}

// Total returns Serve + Move.
func (l Ledger) Total() int64 { return l.Serve + l.Move }

// PayServe charges the unit serving cost.
func (l *Ledger) PayServe() { l.Serve++ }

// PayServeN charges the unit serving cost for n requests at once (the
// batched serve path settles whole coalesced runs in one call).
func (l *Ledger) PayServeN(n int64) { l.Serve += n }

// PayFetch charges α·n for fetching n nodes.
func (l *Ledger) PayFetch(n int) {
	l.Move += l.Alpha * int64(n)
	l.Fetched += int64(n)
}

// PayEvict charges α·n for evicting n nodes.
func (l *Ledger) PayEvict(n int) {
	l.Move += l.Alpha * int64(n)
	l.Evicted += int64(n)
}

// Reset zeroes all accumulated costs, keeping Alpha.
func (l *Ledger) Reset() {
	l.Serve, l.Move, l.Fetched, l.Evicted = 0, 0, 0, 0
}

// Subforest is a mutable cache whose contents always form a subforest
// of the underlying tree. The zero value is not usable; construct with
// NewSubforest. A Subforest is not safe for concurrent use.
type Subforest struct {
	t    *tree.Tree
	in   []bool
	n    int
	mark []bool // scratch bitmap reused by changeset validation

	// cstart[p] is the topmost cached position of heavy path p, or the
	// path length when the path holds nothing. Because the cache is
	// downward-closed, the cached positions of a path always form a
	// suffix [cstart..len), and a valid changeset meets each path in a
	// contiguous range touching cstart — so maintaining the boundary is
	// O(1) per moved node and CachedRoot becomes O(log n) path jumps
	// instead of an O(depth) parent climb.
	cstart []int32
}

// NewSubforest returns an empty cache over t.
func NewSubforest(t *tree.Tree) *Subforest {
	s := &Subforest{t: t, in: make([]bool, t.Len()), mark: make([]bool, t.Len()),
		cstart: make([]int32, t.NumHeavyPaths())}
	s.resetPathBounds()
	return s
}

func (s *Subforest) resetPathBounds() {
	for p := range s.cstart {
		s.cstart[p] = s.t.HeavyPathLen(int32(p))
	}
}

// Tree returns the underlying tree.
func (s *Subforest) Tree() *tree.Tree { return s.t }

// Len returns the number of cached nodes.
func (s *Subforest) Len() int { return s.n }

// Contains reports whether v is cached.
func (s *Subforest) Contains(v tree.NodeID) bool { return s.in[v] }

// Members returns the cached nodes in preorder.
func (s *Subforest) Members() []tree.NodeID {
	return s.AppendMembers(make([]tree.NodeID, 0, s.n))
}

// AppendMembers appends the cached nodes in preorder to dst and returns
// it. Allocation-free when dst has capacity. Because the cache is
// downward-closed, a cached node encountered in preorder heads a fully
// cached subtree: its whole preorder interval is bulk-copied and then
// skipped, so the scan costs O(#non-cached nodes) plus a bulk copy per
// cached subtree — dense caches (e.g. phase-end snapshots) enumerate in
// large contiguous copies instead of a per-node walk.
func (s *Subforest) AppendMembers(dst []tree.NodeID) []tree.NodeID {
	pre := s.t.Preorder()
	for i := 0; i < len(pre); {
		v := pre[i]
		if s.in[v] {
			lo, hi := s.t.PreorderInterval(v)
			dst = append(dst, pre[lo:hi]...)
			i = int(hi)
		} else {
			i++
		}
	}
	return dst
}

// Roots returns the roots of the maximal cached subtrees (cached nodes
// whose parent is not cached), in preorder.
func (s *Subforest) Roots() []tree.NodeID {
	return s.AppendRoots(nil)
}

// AppendRoots appends the cached-tree roots in preorder to dst and
// returns it. Each cached subtree is skipped in O(1) via its preorder
// interval, so the cost is O(#non-cached nodes + #roots) — dense caches
// enumerate their roots without rescanning their interiors.
func (s *Subforest) AppendRoots(dst []tree.NodeID) []tree.NodeID {
	pre := s.t.Preorder()
	for i := 0; i < len(pre); {
		v := pre[i]
		if s.in[v] {
			dst = append(dst, v)
			_, hi := s.t.PreorderInterval(v)
			i = int(hi)
		} else {
			i++
		}
	}
	return dst
}

// AppendMissing appends the non-cached nodes of T(v) in preorder to dst
// and returns it: v's preorder interval is walked with cached subtrees
// skipped in O(1) each, so the cost is O(#appended + #skipped subtrees).
// When v itself is non-cached the result is exactly the tree cap P(v)
// of the paper (the non-cached part of T(v)).
func (s *Subforest) AppendMissing(dst []tree.NodeID, v tree.NodeID) []tree.NodeID {
	pre := s.t.Preorder()
	lo, hi := s.t.PreorderInterval(v)
	for i := lo; i < hi; {
		w := pre[i]
		if s.in[w] {
			_, wHi := s.t.PreorderInterval(w)
			i = wHi
		} else {
			dst = append(dst, w)
			i++
		}
	}
	return dst
}

// CachedRoot returns the root of the maximal cached subtree containing
// v, or tree.None if v is not cached. The climb jumps whole heavy
// paths via their cached boundaries, so it costs O(log n) instead of
// O(depth).
func (s *Subforest) CachedRoot(v tree.NodeID) tree.NodeID {
	if !s.in[v] {
		return tree.None
	}
	for {
		pid := s.t.HeavyPathOf(v)
		c := s.cstart[pid]
		if c > 0 {
			// The position above the boundary is on the same path and
			// not cached: the boundary node is the root.
			return s.t.NodeAtHeavySlot(s.t.HeavyPathBase(pid) + c)
		}
		h := s.t.HeavyPathHead(pid)
		p := s.t.Parent(h)
		if p == tree.None || !s.in[p] {
			return h
		}
		v = p
	}
}

// ValidPositive reports whether X is a valid positive changeset for the
// current cache C: X non-empty, X ∩ C = ∅, and C ∪ X a subforest.
// Because C is already downward-closed, the last condition reduces to:
// every child of every x ∈ X is in C ∪ X.
func (s *Subforest) ValidPositive(x []tree.NodeID) bool {
	if len(x) == 0 {
		return false
	}
	ok := true
	marked := 0
	for _, v := range x {
		if s.in[v] || s.mark[v] {
			ok = false // intersects cache, or duplicate
			break
		}
		s.mark[v] = true
		marked++
	}
	if ok {
	check:
		for _, v := range x {
			for _, c := range s.t.Children(v) {
				if !s.in[c] && !s.mark[c] {
					ok = false
					break check
				}
			}
		}
	}
	for _, v := range x[:marked] {
		s.mark[v] = false
	}
	return ok
}

// ValidNegative reports whether X is a valid negative changeset for the
// current cache C: X non-empty, X ⊆ C, and C \ X a subforest. The last
// condition reduces to: for every x ∈ X, parent(x) ∈ X or parent(x) ∉ C.
func (s *Subforest) ValidNegative(x []tree.NodeID) bool {
	if len(x) == 0 {
		return false
	}
	ok := true
	marked := 0
	for _, v := range x {
		if !s.in[v] || s.mark[v] {
			ok = false // outside cache, or duplicate
			break
		}
		s.mark[v] = true
		marked++
	}
	if ok {
		for _, v := range x {
			p := s.t.Parent(v)
			if p != tree.None && s.in[p] && !s.mark[p] {
				ok = false
				break
			}
		}
	}
	for _, v := range x[:marked] {
		s.mark[v] = false
	}
	return ok
}

// Fetch adds all nodes of X to the cache. It returns an error (and
// leaves the cache untouched) if X is not a valid positive changeset.
func (s *Subforest) Fetch(x []tree.NodeID) error {
	if !s.ValidPositive(x) {
		return fmt.Errorf("cache: invalid positive changeset of %d nodes", len(x))
	}
	for _, v := range x {
		s.in[v] = true
		if pid, pos := s.t.HeavyPathOf(v), s.t.HeavyPos(v); pos < s.cstart[pid] {
			s.cstart[pid] = pos
		}
	}
	s.n += len(x)
	return nil
}

// Evict removes all nodes of X from the cache. It returns an error (and
// leaves the cache untouched) if X is not a valid negative changeset.
func (s *Subforest) Evict(x []tree.NodeID) error {
	if !s.ValidNegative(x) {
		return fmt.Errorf("cache: invalid negative changeset of %d nodes", len(x))
	}
	for _, v := range x {
		s.in[v] = false
		// X meets each path in a contiguous range starting at its
		// cached boundary; the new boundary is one past the deepest
		// evicted position.
		if pid, pos := s.t.HeavyPathOf(v), s.t.HeavyPos(v); pos >= s.cstart[pid] {
			s.cstart[pid] = pos + 1
		}
	}
	s.n -= len(x)
	return nil
}

// InstallMembers adds members to the cache without changeset
// validation, revalidating the per-heavy-path cached boundaries as it
// goes. It is the topology-epoch migration primitive: a dynamic
// instance carries its cached set into a freshly rebuilt snapshot (or
// re-pins tombstoned nodes after a phase flush), where the member set
// is downward-closed by construction rather than a valid changeset
// against the current contents. Nodes already present are ignored;
// allocation-free.
func (s *Subforest) InstallMembers(members []tree.NodeID) {
	for _, v := range members {
		if s.in[v] {
			continue
		}
		s.in[v] = true
		s.n++
		if pid, pos := s.t.HeavyPathOf(v), s.t.HeavyPos(v); pos < s.cstart[pid] {
			s.cstart[pid] = pos
		}
	}
}

// Clear empties the cache and returns the number of nodes evicted.
func (s *Subforest) Clear() int {
	k := s.n
	if k > 0 {
		for i := range s.in {
			s.in[i] = false
		}
		s.n = 0
		s.resetPathBounds()
	}
	return k
}

// CheckInvariant verifies the subforest property (every cached node's
// children are cached) and the internal count; it is used by tests and
// the differential harness.
func (s *Subforest) CheckInvariant() error {
	count := 0
	for v := 0; v < s.t.Len(); v++ {
		if !s.in[v] {
			continue
		}
		count++
		for _, c := range s.t.Children(tree.NodeID(v)) {
			if !s.in[c] {
				return fmt.Errorf("cache: node %d cached but child %d is not", v, c)
			}
		}
	}
	if count != s.n {
		return fmt.Errorf("cache: count mismatch: recorded %d, actual %d", s.n, count)
	}
	// The per-heavy-path cached boundaries must match the membership
	// bitmap exactly.
	actual := make([]int32, s.t.NumHeavyPaths())
	for p := range actual {
		actual[p] = s.t.HeavyPathLen(int32(p))
	}
	for v := 0; v < s.t.Len(); v++ {
		if !s.in[v] {
			continue
		}
		if pid, pos := s.t.HeavyPathOf(tree.NodeID(v)), s.t.HeavyPos(tree.NodeID(v)); pos < actual[pid] {
			actual[pid] = pos
		}
	}
	for p := range actual {
		if actual[p] != s.cstart[p] {
			return fmt.Errorf("cache: heavy path %d cached boundary %d, recorded %d", p, actual[p], s.cstart[p])
		}
	}
	return nil
}

// Clone returns a deep copy of the cache.
func (s *Subforest) Clone() *Subforest {
	in := make([]bool, len(s.in))
	copy(in, s.in)
	cstart := make([]int32, len(s.cstart))
	copy(cstart, s.cstart)
	return &Subforest{t: s.t, in: in, n: s.n, mark: make([]bool, len(s.in)), cstart: cstart}
}

// Equal reports whether two caches over the same tree hold the same set.
func (s *Subforest) Equal(o *Subforest) bool {
	if s.t != o.t || s.n != o.n {
		return false
	}
	for i := range s.in {
		if s.in[i] != o.in[i] {
			return false
		}
	}
	return true
}
