// Package repro's root benchmark harness: benchmarks behind the
// experiments listed in internal/experiments' package doc, plus
// microbenchmarks of the core data structures.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-experiment tables themselves are regenerated by
// cmd/experiments; the benchmarks here measure the throughput claims
// (Theorem 6.1, E3) and give regression coverage for the workloads
// behind every other experiment.
package main

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fib"
	"repro/internal/lowerbound"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// ---------------------------------------------------------------------------
// The benchmark table: E3 / Theorem 6.1 per-request decision cost by
// shape and size, then the batched, churn, engine and daemon layers.
// Rows are defined once, in experiments.Benches, shared with the
// cmd/experiments -bench-json recorder; each function below runs one
// group of them.
// ---------------------------------------------------------------------------

// benchGroup runs every experiments.Benches row named "<group>/<param>"
// as sub-benchmark <param>.
func benchGroup(b *testing.B, group string) {
	for _, r := range experiments.Benches() {
		if sub, ok := strings.CutPrefix(r.Name, group+"/"); ok {
			b.Run(sub, r.Run)
		}
	}
}

func BenchmarkTCStar(b *testing.B)         { benchGroup(b, "TCStar") }
func BenchmarkTCPath(b *testing.B)         { benchGroup(b, "TCPath") }
func BenchmarkTCBinary(b *testing.B)       { benchGroup(b, "TCBinary") }
func BenchmarkTCWideFanout(b *testing.B)   { benchGroup(b, "TCWideFanout") }
func BenchmarkTCCaterpillar(b *testing.B)  { benchGroup(b, "TCCaterpillar") }
func BenchmarkTCDeepRandom(b *testing.B)   { benchGroup(b, "TCDeepRandom") }
func BenchmarkTCBurst(b *testing.B)        { benchGroup(b, "TCBurst") }
func BenchmarkTCBurstSeq(b *testing.B)     { benchGroup(b, "TCBurstSeq") }
func BenchmarkEngineFleet(b *testing.B)    { benchGroup(b, "EngineFleet") }
func BenchmarkDaemonLoopback(b *testing.B) { benchGroup(b, "DaemonLoopback") }
func BenchmarkEngineBurst(b *testing.B)    { benchGroup(b, "EngineBurst") }
func BenchmarkTCChurn(b *testing.B)        { benchGroup(b, "TCChurn") }
func BenchmarkEngineChurn(b *testing.B)    { benchGroup(b, "EngineChurn") }
func BenchmarkCheckpoint(b *testing.B)     { benchGroup(b, "Checkpoint") }

// BenchmarkEagerLRU gives the baseline's throughput for comparison.
func BenchmarkEagerLRU(b *testing.B) {
	t := tree.CompleteKary(1<<14, 2)
	rng := rand.New(rand.NewSource(2))
	input := trace.RandomMixed(rng, t, 1<<16)
	e := baseline.NewEager(t, baseline.Config{Alpha: 8, Capacity: 1 << 13, Policy: baseline.LRU})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Serve(input[i&(1<<16-1)])
	}
}

// ---------------------------------------------------------------------------
// E1 / Theorem 5.15: ratio-measurement machinery (exact OPT DP).
// ---------------------------------------------------------------------------

func BenchmarkE1ExactOPT(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	t := tree.CompleteKary(7, 2)
	input := trace.RandomMixed(rng, t, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Exact(t, input, 4, 2)
	}
}

func BenchmarkE1StaticKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	t := tree.CompleteKary(1<<12, 2)
	input := trace.ZipfNodes(rng, t, 1<<15, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Static(t, input, 256, 8)
	}
}

// ---------------------------------------------------------------------------
// E2 / Theorem C.1: adversary throughput.
// ---------------------------------------------------------------------------

func BenchmarkE2Adversary(b *testing.B) {
	star := tree.Star(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := core.New(star, core.Config{Alpha: 4, Capacity: 16})
		adv := lowerbound.NewPagingAdversary(star, 4, 500)
		sim.RunAdversarial(tc, adv)
	}
}

// ---------------------------------------------------------------------------
// E4/E5: event-space reconstruction and shifting.
// ---------------------------------------------------------------------------

func BenchmarkE4Recorder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	t := tree.CompleteKary(15, 2)
	input := trace.RandomMixed(rng, t, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := analysis.NewRecorder(t, 4)
		tc := core.New(t, core.Config{Alpha: 4, Capacity: 8, Observer: rec})
		for _, req := range input {
			tc.Serve(req)
		}
		rec.Finish(tc.CacheLen())
	}
}

func BenchmarkE5Shifting(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	t := tree.CompleteKary(15, 2)
	input := trace.RandomMixed(rng, t, 2000)
	rec := analysis.NewRecorder(t, 4)
	tc := core.New(t, core.Config{Alpha: 4, Capacity: 8, Observer: rec})
	for _, req := range input {
		tc.Serve(req)
	}
	phases := rec.Finish(tc.CacheLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range phases {
			for _, f := range p.Fields {
				if f.Positive {
					analysis.ShiftPositive(t, f, 4)
				} else {
					analysis.ShiftNegative(t, f, 4)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// E6 / Appendix D: construction execution.
// ---------------------------------------------------------------------------

func BenchmarkE6ConstructionD(b *testing.B) {
	c := lowerbound.NewConstructionD(15, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := core.New(c.Tree, core.Config{Alpha: c.Alpha, Capacity: c.Tree.Len()})
		for _, req := range c.Input {
			tc.Serve(req)
		}
	}
}

// ---------------------------------------------------------------------------
// E7/E8: FIB application.
// ---------------------------------------------------------------------------

func BenchmarkE7LPMLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	table, err := fib.GenerateTable(rng, fib.TableConfig{Rules: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint32, 1<<12)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Lookup(addrs[i&(1<<12-1)])
	}
}

func BenchmarkE7FIBSystemTC(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	table, err := fib.GenerateTable(rng, fib.TableConfig{Rules: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	w := fib.GenerateWorkload(rng, table, fib.WorkloadConfig{
		Packets: 1 << 15, ZipfS: 1.1, UpdateRate: 0.01, Alpha: 8,
	})
	tc := core.New(table.Tree(), core.Config{Alpha: 8, Capacity: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Serve(w.Trace[i%len(w.Trace)])
	}
}

func BenchmarkE7TableGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(9))
		if _, err := fib.GenerateTable(rng, fib.TableConfig{Rules: 1 << 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8CompareModels(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	table, err := fib.GenerateTable(rng, fib.TableConfig{Rules: 1 << 11})
	if err != nil {
		b.Fatal(err)
	}
	w := fib.GenerateWorkload(rng, table, fib.WorkloadConfig{
		Packets: 1 << 14, ZipfS: 1.0, UpdateRate: 0.05, Alpha: 8,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := core.New(table.Tree(), core.Config{Alpha: 8, Capacity: 256})
		fib.CompareModels(w, tc, 8)
	}
}
