package tree

import (
	"fmt"
	"math/rand"
	"sort"
)

// Path returns a path of n nodes: 0 → 1 → ... → n-1 (root at 0).
// Height is n-1; this is the worst case for the h(T) factor.
func Path(n int) *Tree {
	parents := make([]NodeID, n)
	parents[0] = None
	for v := 1; v < n; v++ {
		parents[v] = NodeID(v - 1)
	}
	return MustNew(parents)
}

// Star returns a root with n-1 leaf children. Height 1, the shape used
// by the Appendix C lower bound (leaves = pages, the rest irrelevant).
func Star(n int) *Tree {
	parents := make([]NodeID, n)
	parents[0] = None
	for v := 1; v < n; v++ {
		parents[v] = 0
	}
	return MustNew(parents)
}

// CompleteKary returns the complete k-ary tree with exactly n nodes,
// filled level by level (node v>0 has parent (v-1)/k).
func CompleteKary(n, k int) *Tree {
	if k < 1 {
		panic(fmt.Sprintf("tree: CompleteKary branching factor %d < 1", k))
	}
	parents := make([]NodeID, n)
	parents[0] = None
	for v := 1; v < n; v++ {
		parents[v] = NodeID((v - 1) / k)
	}
	return MustNew(parents)
}

// Caterpillar returns a spine of spine nodes, each spine node carrying
// legs leaf children. Total size spine*(legs+1).
func Caterpillar(spine, legs int) *Tree {
	n := spine * (legs + 1)
	parents := make([]NodeID, n)
	parents[0] = None
	for s := 1; s < spine; s++ {
		parents[s] = NodeID(s - 1)
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			parents[next] = NodeID(s)
			next++
		}
	}
	return MustNew(parents)
}

// TwoSubtrees returns the Appendix-D shape: a root r whose two children
// are the roots of two disjoint complete binary subtrees of size s each
// (so s must be of the form 2^d − 1 for a perfect shape; any s ≥ 1 is
// accepted and filled level by level). Total size 2s+1.
// It also returns the roots of T1 and T2.
func TwoSubtrees(s int) (t *Tree, root, r1, r2 NodeID) {
	if s < 1 {
		panic("tree: TwoSubtrees needs s >= 1")
	}
	n := 2*s + 1
	parents := make([]NodeID, n)
	parents[0] = None
	// T1 occupies nodes 1..s, T2 occupies nodes s+1..2s, each a complete
	// binary tree hanging off the root.
	build := func(base int) {
		parents[base] = 0
		for i := 1; i < s; i++ {
			parents[base+i] = NodeID(base + (i-1)/2)
		}
	}
	build(1)
	build(s + 1)
	return MustNew(parents), 0, 1, NodeID(s + 1)
}

// TwoPathSubtrees is the Appendix-D shape with path-shaped subtrees: a
// root whose two children each head a path of s nodes, so the height
// is s (the tallest shape at this size). Total size 2s+1. Returns the
// roots of P1 and P2.
func TwoPathSubtrees(s int) (t *Tree, root, r1, r2 NodeID) {
	if s < 1 {
		panic("tree: TwoPathSubtrees needs s >= 1")
	}
	n := 2*s + 1
	parents := make([]NodeID, n)
	parents[0] = None
	parents[1] = 0
	for i := 2; i <= s; i++ {
		parents[i] = NodeID(i - 1)
	}
	parents[s+1] = 0
	for i := s + 2; i <= 2*s; i++ {
		parents[i] = NodeID(i - 1)
	}
	return MustNew(parents), 0, 1, NodeID(s + 1)
}

// Random returns a random recursive tree with n nodes: node v attaches
// to an earlier node u drawn with weight (1+depth(u))^⌊depthBias⌋, so
// depthBias = 0 gives the uniform random recursive tree and higher
// values give taller trees. Deterministic in rng, which it reads once
// per node.
//
// A node's weight never changes once it is placed, so the weights live
// in one append-only array of prefix sums, and the parent is the first
// node whose prefix sum reaches the draw, found by binary search: O(n
// log n) in all. The weights are integers, so while their total stays
// below 2^53 every prefix sum is exact, and the search picks the node
// that a linear scan subtracting each weight from the draw picks.
func Random(rng *rand.Rand, n int, depthBias float64) *Tree {
	parents := make([]NodeID, n)
	parents[0] = None
	depth := make([]int, n)
	var prefix []float64
	if depthBias != 0 {
		prefix = make([]float64, n)
		prefix[0] = 1 // the root's weight, (1+0)^⌊depthBias⌋
	}
	for v := 1; v < n; v++ {
		var p int
		if prefix == nil {
			p = rng.Intn(v)
		} else {
			// Searching the first v-1 prefix sums yields v-1 when none
			// reaches r, which is where the scan ends too.
			r := rng.Float64() * prefix[v-1]
			p = sort.Search(v-1, func(u int) bool { return prefix[u] >= r })
		}
		parents[v] = NodeID(p)
		depth[v] = depth[p] + 1
		if prefix != nil {
			w := 1.0
			for i := 0; i < int(depthBias); i++ {
				w *= float64(1 + depth[v])
			}
			prefix[v] = prefix[v-1] + w
		}
	}
	return MustNew(parents)
}

// FromShape builds the named shape with n ≥ 1 nodes: path, star,
// binary, ternary, caterpillar (legs of 2, so n rounds down to a
// multiple of 3, at least 3) or random (a random recursive tree drawn
// from rng, which no other shape reads). It is the one shape table of
// the command-line tools, so a daemon and its replaying client given
// the same flags serve the same tree. An unknown shape or n < 1 is an
// error.
func FromShape(rng *rand.Rand, shape string, n int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("tree: %s shape needs at least 1 node, got %d", shape, n)
	}
	switch shape {
	case "path":
		return Path(n), nil
	case "star":
		return Star(n), nil
	case "binary":
		return CompleteKary(n, 2), nil
	case "ternary":
		return CompleteKary(n, 3), nil
	case "caterpillar":
		return Caterpillar(max(n/3, 1), 2), nil
	case "random":
		return Random(rng, n, 1), nil
	}
	return nil, fmt.Errorf("tree: unknown shape %q (want path|star|binary|ternary|caterpillar|random)", shape)
}

// RandomShape draws one of the canonical shapes (path, star, binary,
// ternary, caterpillar, random recursive) with n nodes, for fuzzing.
func RandomShape(rng *rand.Rand, n int) *Tree {
	if n < 1 {
		panic("tree: RandomShape needs n >= 1")
	}
	switch rng.Intn(6) {
	case 0:
		return Path(n)
	case 1:
		return Star(n)
	case 2:
		return CompleteKary(n, 2)
	case 3:
		return CompleteKary(n, 3)
	case 4:
		legs := 1 + rng.Intn(3)
		spine := n / (legs + 1)
		if spine < 1 {
			spine = 1
		}
		t := Caterpillar(spine, legs)
		if t.Len() == n {
			return t
		}
		return Random(rng, n, 0)
	default:
		return Random(rng, n, float64(rng.Intn(3)))
	}
}
