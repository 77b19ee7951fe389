// Package lowerbound implements the two adversarial constructions of
// the paper's appendices.
//
// Appendix C: any deterministic online tree-caching algorithm suffers
// competitive ratio Ω(k_ONL/(k_ONL−k_OPT+1)). The construction reduces
// from classic paging on a star whose leaves are the pages: each page
// request becomes a chunk of α positive requests to the corresponding
// leaf, and the adversary always picks a leaf missing from the online
// cache. An explicit offline solution mirroring Belady upper-bounds the
// optimum.
//
// Appendix D: the "troublesome positive field" instance showing that
// positive fields cannot be shifted to an exactly-even distribution:
// all but the final Θ(ℓ) requests of the field can be shifted only into
// one half of the tree.
package lowerbound

import (
	"fmt"

	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// PagingAdversary is a sim.Adversary implementing the Appendix C
// construction over a star tree: leaves 1..k_ONL+1 correspond to pages.
// At every chunk boundary it picks a leaf whose node is missing from
// the online cache and issues α consecutive positive requests to it.
type PagingAdversary struct {
	t      *tree.Tree
	alpha  int64
	chunks int

	emitted   int
	remaining int64
	current   tree.NodeID
	pages     []int
}

// NewPagingAdversary builds the adversary. The tree must be a star with
// at least kONL+1 leaves (use tree.Star(kONL+2)). chunks is the number
// of page requests to issue; the total trace length is chunks·α.
func NewPagingAdversary(t *tree.Tree, alpha int64, chunks int) *PagingAdversary {
	if t.Height() != 1 {
		panic(fmt.Sprintf("lowerbound: adversary needs a star tree, got height %d", t.Height()))
	}
	return &PagingAdversary{t: t, alpha: alpha, chunks: chunks}
}

// PageSequence returns the page indices (leaf numbers − 1) requested so
// far, one per chunk; feed it to paging.Belady for the offline bound.
func (a *PagingAdversary) PageSequence() []int { return a.pages }

// Next implements sim.Adversary.
func (a *PagingAdversary) Next(alg sim.Algorithm) (trace.Request, bool) {
	if a.remaining == 0 {
		if a.emitted >= a.chunks {
			return trace.Request{}, false
		}
		a.emitted++
		a.remaining = a.alpha
		// Pick the first leaf missing from the online cache. One always
		// exists because the leaf count exceeds the capacity.
		a.current = tree.None
		for v := tree.NodeID(1); int(v) < a.t.Len(); v++ {
			if !alg.Cached(v) {
				a.current = v
				break
			}
		}
		if a.current == tree.None {
			a.current = 1
		}
		a.pages = append(a.pages, int(a.current)-1)
	}
	a.remaining--
	return trace.Pos(a.current), true
}

// MirroredOptCost upper-bounds the tree-caching optimum on the
// adversary's input by replaying Belady with capacity kOPT: for every
// chunk whose page Belady misses, the offline solution bypasses the α
// requests (cost α), fetches the leaf (cost α) and evicts Belady's
// victim if any (cost α); chunks Belady hits are free. This is the
// explicit solution from the Appendix C proof.
func MirroredOptCost(pages []int, kOPT int, alpha int64) int64 {
	misses, missAt := paging.Belady(pages, kOPT)
	var evictions int64
	occupancy := 0
	for _, m := range missAt {
		if m {
			if occupancy >= kOPT {
				evictions++
			} else {
				occupancy++
			}
		}
	}
	return misses*alpha /* bypassed chunks */ + misses*alpha /* fetches */ + evictions*alpha
}

// R returns the paper's resource-augmentation ratio
// k_ONL/(k_ONL−k_OPT+1).
func R(kONL, kOPT int) float64 {
	return float64(kONL) / float64(kONL-kOPT+1)
}

// ---------------------------------------------------------------------------
// Appendix D construction.
// ---------------------------------------------------------------------------

// ConstructionD is the Appendix D instance: a root r with two subtrees
// T1, T2 of size s each. The request sequence drives TC through the
// exact chronology of Figure 4: (1) evict T1∪{r}, (2) positive requests
// at r, (3) evict T2, (4) positive requests at root(T1), (5) positive
// requests at r triggering the fetch of the entire tree.
//
// Deviation from the paper: stage 4 uses
// s·α−1 requests instead of s·α — with exactly s·α the cap T1 saturates
// at the last request and TC fetches T1, contradicting the prose; the
// missing request moves to stage 5 (ℓ+1 instead of ℓ), keeping the
// total at (2s+1)·α and the construction's point intact.
type ConstructionD struct {
	Tree   *tree.Tree
	Root   tree.NodeID
	R1, R2 tree.NodeID // roots of T1 and T2
	S      int         // size of each subtree
	Leaves int         // ℓ: leaves of each subtree
	Alpha  int64
	Input  trace.Trace
	// Milestones: rounds (1-based) at which TC must apply changesets.
	EvictT1R int64 // end of stage 1: evict T1 ∪ {r}
	EvictT2  int64 // end of stage 3: evict T2
	FetchAll int64 // end of stage 5: fetch the whole tree
}

// NewConstructionD builds the instance for subtree size s and cost α,
// with complete binary subtrees (the paper's figure suggests bushy
// subtrees with many leaves). The returned input assumes TC capacity
// ≥ 2s+1 and starts by filling the cache with the entire tree
// ((2s+1)·α positive requests at the root).
func NewConstructionD(s int, alpha int64) *ConstructionD {
	t, root, r1, r2 := tree.TwoSubtrees(s)
	return newConstructionD(t, root, r1, r2, s, alpha)
}

// NewConstructionDPaths is NewConstructionD with path-shaped subtrees:
// height s instead of log s at the same size, the tallest variant.
// Used by the h(T)-conjecture experiment (E10).
func NewConstructionDPaths(s int, alpha int64) *ConstructionD {
	t, root, r1, r2 := tree.TwoPathSubtrees(s)
	return newConstructionD(t, root, r1, r2, s, alpha)
}

func newConstructionD(t *tree.Tree, root, r1, r2 tree.NodeID, s int, alpha int64) *ConstructionD {
	leaves := 0
	for _, v := range t.Leaves() {
		if t.IsAncestorOrSelf(r1, v) {
			leaves++
		}
	}
	c := &ConstructionD{
		Tree: t, Root: root, R1: r1, R2: r2,
		S: s, Leaves: leaves, Alpha: alpha,
	}
	var in trace.Trace
	add := func(n int64, r trace.Request) {
		for i := int64(0); i < n; i++ {
			in = append(in, r)
		}
	}
	// Preamble: fetch the entire tree by saturating P(root).
	add(int64(t.Len())*alpha, trace.Pos(root))
	// Stage 1: α negative requests per node of T1 bottom-up, then at r.
	sub1 := t.SubtreeView(r1)
	for i := len(sub1) - 1; i >= 0; i-- {
		add(alpha, trace.Neg(sub1[i]))
	}
	add(alpha, trace.Neg(root))
	c.EvictT1R = int64(len(in))
	// Stage 2: (s+1)·α − ℓ positive requests at r.
	add(int64(s+1)*alpha-int64(leaves), trace.Pos(root))
	// Stage 3: α negative requests per node of T2 bottom-up.
	sub2 := t.SubtreeView(r2)
	for i := len(sub2) - 1; i >= 0; i-- {
		add(alpha, trace.Neg(sub2[i]))
	}
	c.EvictT2 = int64(len(in))
	// Stage 4: s·α − 1 positive requests at root(T1).
	add(int64(s)*alpha-1, trace.Pos(r1))
	// Stage 5: ℓ + 1 positive requests at r; the last one fetches T.
	add(int64(leaves)+1, trace.Pos(root))
	c.FetchAll = int64(len(in))
	c.Input = in
	return c
}

// UpperHalfNodes returns s+1: the number of nodes (T1 ∪ {r}) that the
// stage-2 and stage-4 requests are confined to under legal down-shifts;
// the Appendix D argument is that for large α and s no shifting
// strategy can deliver α requests to many more nodes than this, i.e.
// only about half of the 2s+1 field nodes.
func (c *ConstructionD) UpperHalfNodes() int { return c.S + 1 }
