package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tree"
)

// EngineFleet measures the sharded serving engine: a fleet of tenants
// with a Zipf-skewed multi-tenant workload, served sequentially and
// then on the engine at the ambient GOMAXPROCS. Two claims are
// checked:
//
//  1. Correctness under concurrency: the engine's per-tenant costs
//     equal the per-tenant sequential replay (the single-writer-per-
//     shard invariant makes the concurrent run deterministic).
//  2. Throughput: the engine row against the sequential row. Scaling
//     with CPUs is quoted from the same-process -cpu 1,2 pair of the
//     EngineFleet benchmark rows, not from this table.
func EngineFleet() []Report {
	const tenants = 8
	trees := make([]*tree.Tree, tenants)
	for i := range trees {
		switch i % 4 {
		case 0:
			trees[i] = tree.CompleteKary(1<<12, 2)
		case 1:
			trees[i] = tree.Star(1 << 12)
		case 2:
			trees[i] = tree.Path(1 << 9)
		default:
			trees[i] = tree.CompleteKary(1<<12, 16)
		}
	}
	mkTC := func(i int) *core.TC {
		return core.New(trees[i], core.Config{Alpha: 8, Capacity: trees[i].Len() / 2})
	}
	// runFleet serves a workload on a fresh engine and reports its
	// stats, wall time, and whether every shard's ledger equals want.
	runFleet := func(mt trace.MultiTrace, want []int64) (engine.Stats, time.Duration, bool) {
		e := engine.New(engine.Config{Shards: tenants, NewShard: func(i int) engine.Algorithm { return mkTC(i) }})
		defer e.Close()
		start := time.Now()
		if err := e.SubmitMulti(mt, 1024); err != nil {
			panic("experiments: " + err.Error())
		}
		e.Drain()
		elapsed := time.Since(start)
		st := e.Stats()
		for i, ss := range st.Shards {
			if ss.Total() != want[i] {
				return st, elapsed, false
			}
		}
		return st, elapsed, true
	}

	rng := rand.New(rand.NewSource(600))
	mt := trace.MultiTenant(rng, trees, trace.MultiTenantConfig{
		Rounds: 400000, TenantS: 1.1, NodeS: 1.0, NegFrac: 0.2, BurstFrac: 0.02, BurstLen: 16,
	})

	// Sequential per-tenant ground truth.
	split := mt.Split(tenants)
	seqTotals := make([]int64, tenants)
	seqStart := time.Now()
	for i := range trees {
		seqTotals[i] = sim.Run(mkTC(i), split[i]).Total()
	}
	seqElapsed := time.Since(seqStart)

	tb := stats.NewTable("run", "rounds", "wall ms", "Mops/s", "speedup", "p50 ns", "p99 ns", "p999 ns", "cost parity")
	baseOps := float64(len(mt)) / seqElapsed.Seconds()
	tb.AddRow("sequential", len(mt), seqElapsed.Milliseconds(),
		fmt.Sprintf("%.2f", baseOps/1e6), "1.00", "—", "—", "—", "—")
	st, elapsed, parityOK := runFleet(mt, seqTotals)
	ops := float64(st.Rounds) / elapsed.Seconds()
	tb.AddRow("engine", st.Rounds, elapsed.Milliseconds(),
		fmt.Sprintf("%.2f", ops/1e6),
		fmt.Sprintf("%.2f", ops/baseOps),
		st.Latency.Quantile(0.5), st.Latency.Quantile(0.99), st.Latency.Quantile(0.999),
		parityOK)

	// FIB-update replay: the same parity check under the Appendix-B
	// update encoding (bursts of exactly α negatives per rule update).
	fibTB := stats.NewTable("tenants", "rounds", "updates share", "wall ms", "Mops/s", "cost parity")
	fib := trace.FIBUpdateReplay(rng, trees, 200000, 1.0, 0.05, 8)
	pos, neg := 0, 0
	for _, r := range fib {
		if r.Req.Kind == trace.Negative {
			neg++
		} else {
			pos++
		}
	}
	fibSplit := fib.Split(tenants)
	fibSeq := make([]int64, tenants)
	for i := range trees {
		fibSeq[i] = sim.Run(mkTC(i), fibSplit[i]).Total()
	}
	st, elapsed, fibParity := runFleet(fib, fibSeq)
	parityOK = parityOK && fibParity
	fibTB.AddRow(tenants, len(fib), fmt.Sprintf("%.1f%%", 100*float64(neg)/float64(len(fib))),
		elapsed.Milliseconds(), fmt.Sprintf("%.2f", float64(st.Rounds)/elapsed.Seconds()/1e6), fibParity)

	notes := []string{
		fmt.Sprintf("%d tenants (binary/star/path/16-ary mix), zipf tenant mix s=1.1, one worker goroutine per shard, GOMAXPROCS=%d", tenants, runtime.GOMAXPROCS(0)),
		"cost parity: every shard's concurrent ledger equals its sequential per-tenant replay (single-writer-per-shard determinism)",
		"p50/p99/p999: amortized per-request service latency (batch wall time / batch size) from the fleet-merged shard histograms, ≤12.5% bucket error",
	}
	if !parityOK {
		notes = append(notes, "WARNING: cost parity FAILED — engine run diverged from sequential replay")
	}
	notes = append(notes, "scaling with CPUs: compare the EngineFleet benchmark rows at -cpu 1,2 (same process), not this table")
	return []Report{
		{ID: "ENGINE-a", Title: "Sharded engine — multi-tenant throughput and cost parity", Table: tb, Notes: notes},
		{ID: "ENGINE-b", Title: "Sharded engine — FIB-update replay (Appendix B bursts) across the fleet", Table: fibTB},
		engineFaultDrill(),
	}
}

// engineFaultDrill exercises the supervision layer end to end: a fleet
// of checkpointing shards is served a multi-tenant workload while
// deterministic faults fire mid-run — two shards panic mid-batch, one
// has its first periodic checkpoint corrupted in flight — and the drill
// verifies every shard's ledger still equals its sequential replay
// (crash-recover-replay loses nothing, a rejected checkpoint keeps the
// previous one). The table prints the per-shard supervision counters
// that cmd/experiments exposes for operations.
func engineFaultDrill() Report {
	const tenants = 4
	trees := make([]*tree.Tree, tenants)
	cfgs := make([]core.MutableConfig, tenants)
	for i := range trees {
		trees[i] = tree.CompleteKary(1<<10, 2)
		cfgs[i] = core.MutableConfig{Config: core.Config{Alpha: 8, Capacity: trees[i].Len() / 4}}
	}

	// Injectors exist (and are armed) before the engine starts so the
	// fault schedule is deterministic: the worker's initial capture is
	// Checkpoint unit 1, making unit 2 the first periodic checkpoint.
	faults := []string{"panic @ request 2000", "panic @ request 15000", "corrupt 1st periodic ckpt", "none"}
	injs := make([]*faultinject.Injector, tenants)
	for i := range injs {
		injs[i] = faultinject.NewInjector()
	}
	injs[0].Arm(faultinject.ServeRequest, 2000)
	injs[1].Arm(faultinject.ServeRequest, 15000)
	injs[2].Arm(faultinject.Checkpoint, 2)

	e := engine.New(engine.Config{
		Shards: tenants,
		NewShard: func(i int) engine.Algorithm {
			return faultinject.Wrap(snapshot.Checkpointed{MutableTC: core.NewMutable(trees[i], cfgs[i])}, injs[i])
		},
		QueueLen:        8,
		CheckpointEvery: 4,
	})

	rng := rand.New(rand.NewSource(601))
	mt := trace.MultiTenant(rng, trees, trace.MultiTenantConfig{
		Rounds: 80000, TenantS: 1.0, NodeS: 1.0, NegFrac: 0.25, BurstFrac: 0.02, BurstLen: 8,
	})
	if err := e.SubmitMulti(mt, 512); err != nil {
		panic("experiments: " + err.Error())
	}
	e.Drain()
	st := e.Stats()
	e.Close()

	split := mt.Split(tenants)
	tb := stats.NewTable("shard", "fault", "restarts", "ckpts", "ckpt errs", "dropped", "queue", "cost parity")
	parityOK := true
	for i, ss := range st.Shards {
		seq := core.NewMutable(trees[i], cfgs[i])
		var total int64
		for _, r := range split[i] {
			s, m := seq.Serve(r)
			total += s + m
		}
		parity := ss.Total() == total
		parityOK = parityOK && parity
		tb.AddRow(i, faults[i], ss.Restarts, ss.Checkpoints, ss.CkptErrs, ss.Dropped, ss.QueueDepth, parity)
	}
	notes := []string{
		"supervised shards: snapshot-checkpointed dynamic instances, CheckpointEvery=4 batches, journal replay on restart",
		"cost parity: ledger after crash-recover-replay equals the fault-free sequential replay (no request lost or double-served)",
	}
	if !parityOK {
		notes = append(notes, "WARNING: cost parity FAILED — recovery diverged from sequential replay")
	}
	if st.Restarts < 2 || st.CkptErrs < 1 {
		notes = append(notes, fmt.Sprintf("WARNING: fault schedule did not fire as planned (restarts=%d ckptErrs=%d)", st.Restarts, st.CkptErrs))
	}
	return Report{ID: "ENGINE-c", Title: "Sharded engine — fault-tolerance drill: mid-batch panics and a corrupted checkpoint", Table: tb, Notes: notes}
}
