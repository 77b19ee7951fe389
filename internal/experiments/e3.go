package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tree"
)

// E3DecisionCost measures TC's per-request wall time across tree
// shapes and sizes. Theorem 6.1 bounds a decision by
// O(h + max(h,deg)·|X_t|) time and O(|T|) memory; the serve core
// (internal/core) answers a request's root-path climb with heavy-path
// segment trees instead, in O(log² |T|) whatever the height. The
// prediction: time per request is near-flat in |T| on every shape,
// paths (h = |T|−1) included, growing only polylogarithmically.
//
// The measurement runs on the sharded serving engine — one shard per
// shape, each shape submitted and drained before the next so the
// shards execute back to back — and reads each shard's BusyNs latency
// ledger, so the number reported is exactly the engine's own per-batch
// serve timing.
func E3DecisionCost() []Report {
	type shapeCase struct {
		name string
		t    *tree.Tree
	}
	var cases []shapeCase
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		cases = append(cases, shapeCase{"star", tree.Star(n)})
	}
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		cases = append(cases, shapeCase{"path", tree.Path(n)})
	}
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		cases = append(cases, shapeCase{"binary", tree.CompleteKary(n, 2)})
	}
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		cases = append(cases, shapeCase{"16-ary", tree.CompleteKary(n, 16)})
	}

	const rounds = 200000
	e := engine.New(engine.Config{
		Shards: len(cases),
		NewShard: func(i int) engine.Algorithm {
			capa := cases[i].t.Len() / 2
			if capa < 1 {
				capa = 1
			}
			return core.New(cases[i].t, core.Config{Alpha: 8, Capacity: capa})
		},
		QueueLen: 1,
	})
	for i, c := range cases {
		rng := rand.New(rand.NewSource(42))
		if err := e.Submit(i, trace.RandomMixed(rng, c.t, rounds)); err != nil {
			panic("experiments: " + err.Error())
		}
		e.Drain() // one shape at a time: clean per-shape timing
	}
	st := e.Stats()
	e.Close()

	tb := stats.NewTable("shape", "|T|", "height", "maxDeg", "requests", "ns/request")
	for i, c := range cases {
		ss := st.Shards[i]
		tb.AddRow(c.name, c.t.Len(), c.t.Height(), c.t.MaxDegree(), ss.Rounds,
			fmt.Sprintf("%.0f", float64(ss.BusyNs)/float64(ss.Rounds)))
	}
	return []Report{{
		ID:    "E3",
		Title: "Theorem 6.1 — per-request decision cost by tree shape and size",
		Table: tb,
		Notes: []string{
			"star: height 1 → ns/request flat in |T| (degree only enters via |X_t| on evictions)",
			"path: height = |T|−1, yet ns/request grows only polylogarithmically in |T|: the heavy-path core climbs in O(log² |T|), not O(h)",
			"binary/16-ary: h = log |T| → near-flat growth",
			"memory is O(|T|): all per-node state lives in fixed-width arrays (see core.New)",
			"timed by the serving engine's per-shard BusyNs ledger (one shard per shape, served one at a time)",
		},
	}}
}
