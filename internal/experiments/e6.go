package experiments

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tree"
)

// E6ConstructionD executes the Appendix D instance across sizes and
// verifies Figure 4's chronology, then quantifies the construction's
// point: in the final positive field of size 2s+1, all but the last
// ℓ+1 requests are confined (under legal shifting) to the s+1 nodes of
// T1 ∪ {r}, so at most about half the nodes can ever receive α
// requests.
func E6ConstructionD() []Report {
	tb := stats.NewTable("s", "alpha", "|T|", "ℓ", "chronologyOK", "earlyReqs", "confinedTo", "maxFullBound", "fullAchieved")
	for _, s := range []int{3, 7, 15, 31} {
		for _, alpha := range []int64{4, 8, 16} {
			c := lowerbound.NewConstructionD(s, alpha)
			n := c.Tree.Len()
			rec := analysis.NewRecorder(c.Tree, alpha)
			log := &milestoneCheck{c: c}
			tc := core.New(c.Tree, core.Config{Alpha: alpha, Capacity: n, Observer: multiObserver{rec, log}})
			for _, req := range c.Input {
				tc.Serve(req)
			}
			phases := rec.Finish(tc.CacheLen())
			var final *analysis.Field
			for _, p := range phases {
				for _, f := range p.Fields {
					if f.Positive && f.Size() == n {
						final = f
					}
				}
			}
			early, full := 0, 0
			if final != nil {
				for _, slot := range final.Requests {
					if slot.Round <= c.EvictT2 {
						early++
					}
				}
				if res, err := analysis.ShiftPositive(c.Tree, final, alpha); err == nil {
					full = res.Dist.NodesWithAtLeast(int(alpha))
				}
			}
			maxFull := s + 1 + (c.Leaves+1)/int(alpha)
			tb.AddRow(s, alpha, n, c.Leaves, log.ok(), early, s+1, maxFull, full)
		}
	}
	return []Report{{
		ID:    "E6",
		Title: "Appendix D — the troublesome positive field (Figure 4)",
		Table: tb,
		Notes: []string{
			"chronologyOK: TC applied exactly the four predicted changesets at the predicted rounds",
			"earlyReqs arrive before T2 enters the field and can shift only into the s+1 nodes of T1∪{r}",
			"maxFullBound = s+1 + ⌊(ℓ+1)/α⌋ upper-bounds nodes receiving α requests under ANY legal shift: ≈ half of |T| = 2s+1",
			"stage 4 uses s·α−1 requests (paper says s·α, which would trigger a fetch of T1; see lowerbound.ConstructionD)",
		},
	}}
}

// milestoneCheck verifies the Figure 4 chronology online: a preamble
// full fetch, the stage-1 eviction of T1∪{r}, the stage-3 eviction of
// T2, and the final full fetch — nothing else, at the exact rounds.
type milestoneCheck struct {
	core.NopObserver
	c      *lowerbound.ConstructionD
	events []appliedEvent
}

type appliedEvent struct {
	round int64
	size  int
	pos   bool
}

func (m *milestoneCheck) OnApply(round int64, x []tree.NodeID, positive bool) {
	m.events = append(m.events, appliedEvent{round: round, size: len(x), pos: positive})
}

func (m *milestoneCheck) ok() bool {
	c := m.c
	n := c.Tree.Len()
	want := []appliedEvent{
		{round: int64(n) * c.Alpha, size: n, pos: true},
		{round: c.EvictT1R, size: c.S + 1, pos: false},
		{round: c.EvictT2, size: c.S, pos: false},
		{round: c.FetchAll, size: n, pos: true},
	}
	if len(m.events) != len(want) {
		return false
	}
	for i := range want {
		if m.events[i] != want[i] {
			return false
		}
	}
	return true
}

// multiObserver fans events out to several observers.
type multiObserver []core.Observer

func (m multiObserver) OnRequest(round int64, v tree.NodeID, k trace.Kind, paid bool) {
	for _, o := range m {
		o.OnRequest(round, v, k, paid)
	}
}

func (m multiObserver) OnApply(round int64, x []tree.NodeID, positive bool) {
	for _, o := range m {
		o.OnApply(round, x, positive)
	}
}

func (m multiObserver) OnPhaseEnd(round int64, evicted, wouldFetch []tree.NodeID) {
	for _, o := range m {
		o.OnPhaseEnd(round, evicted, wouldFetch)
	}
}
