package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// The -bench-json mode records the benchmark table (experiments.Benches,
// the same rows as the repo-root Benchmark* functions) into a JSON
// file, so the repository keeps a perf trajectory across PRs. The file
// holds two sections: "baseline" (written with -bench-baseline, kept
// untouched by later runs) and "current" (rewritten on every run).
//
// One recording runs the whole table benchRounds times, one round
// after another, and keeps each row's median round beside every
// round's sample, so one slow round alone does not decide a row: on a
// shared 2-CPU host a row's rounds within one recording spread by up
// to 1.5× (max/min), more than the ±30% compare gate allows.

// benchRounds is how many times -bench-json records the whole table.
const benchRounds = 3

type benchResult struct {
	Name string `json:"name"`
	// Iterations, NsPerOp, BytesPerOp and AllocsPerOp are the median
	// round's (by ns/op) when Samples is set, else the one round's.
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GoMaxProcs is the scheduler width the row was measured under.
	// Rows that start goroutines (experiments.Bench.Goroutines) are
	// only interpretable next to it: at 1 the shard workers and wire
	// clients time-share one processor, so shards>1 ties shards=1 by
	// design. -bench-cpus sweeps it.
	GoMaxProcs int `json:"gomaxprocs"`
	// Samples holds every round in recording order. Files recorded
	// before rounds existed have none.
	Samples []benchSample `json:"samples,omitempty"`
}

// benchSample is one round's measurement of a row.
type benchSample struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// medianResult is the row for one benchmark's rounds: the median
// sample (by ns/op; the lower middle of an even count) with every
// sample beside it.
func medianResult(name string, procs int, samples []benchSample) benchResult {
	sorted := slices.Clone(samples)
	slices.SortStableFunc(sorted, func(a, b benchSample) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	m := sorted[(len(sorted)-1)/2]
	return benchResult{
		Name: name, Iterations: m.Iterations, NsPerOp: m.NsPerOp,
		BytesPerOp: m.BytesPerOp, AllocsPerOp: m.AllocsPerOp,
		GoMaxProcs: procs, Samples: samples,
	}
}

type benchFile struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// GoMaxProcs records the scheduler width of the recording host:
	// the EngineFleet shards>1 rows only show aggregate speedup over
	// shards=1 when it is > 1 (on a 1-core host they tie by physics).
	GoMaxProcs int           `json:"gomaxprocs"`
	UpdatedAt  string        `json:"updated_at"`
	Baseline   []benchResult `json:"baseline,omitempty"`
	Current    []benchResult `json:"current"`
}

// emitBenchJSON runs every experiments.Benches row benchRounds times
// and merges the median rows into the JSON file at path. With
// asBaseline the results are stored under "baseline" (preserving any
// existing "current"); otherwise under "current" (preserving any
// existing "baseline").
//
// cpus is the -bench-cpus sweep: the GOMAXPROCS settings to measure the
// Goroutines rows under. In every round the other rows run first, at
// the ambient setting. nil or empty means ambient only; with more than
// one value the swept rows carry a /cpus=N name suffix so the JSON
// keeps every point.
func emitBenchJSON(path string, asBaseline bool, cpus []int) error {
	var file benchFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("bench-json: cannot parse existing %s: %v", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
		// Fresh file.
	default:
		// Anything else (permissions, I/O): bail rather than silently
		// rewriting the file without its recorded sections.
		return fmt.Errorf("bench-json: cannot read existing %s: %v", path, err)
	}
	benches := experiments.Benches()
	ambient := runtime.GOMAXPROCS(0)
	if len(cpus) == 0 {
		cpus = []int{ambient}
	}
	var names []string
	samples := map[string][]benchSample{}
	procs := map[string]int{}
	round := 0
	run := func(name string, f func(*testing.B)) {
		fmt.Fprintf(os.Stderr, "bench %s (round %d/%d)...\n", name, round+1, benchRounds)
		r := testing.Benchmark(f)
		if round == 0 {
			names = append(names, name)
		}
		samples[name] = append(samples[name], benchSample{
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		procs[name] = runtime.GOMAXPROCS(0)
	}
	for ; round < benchRounds; round++ {
		for _, bn := range benches {
			if !bn.Goroutines {
				run(bn.Name, bn.Run)
			}
		}
		for _, p := range cpus {
			runtime.GOMAXPROCS(p)
			suffix := ""
			if len(cpus) > 1 {
				suffix = fmt.Sprintf("/cpus=%d", p)
			}
			for _, bn := range benches {
				if bn.Goroutines {
					run(bn.Name+suffix, bn.Run)
				}
			}
		}
		runtime.GOMAXPROCS(ambient)
	}
	results := make([]benchResult, len(names))
	for i, name := range names {
		results[i] = medianResult(name, procs[name], samples[name])
	}
	file.GeneratedBy = "cmd/experiments -bench-json"
	file.GoVersion = runtime.Version()
	file.GOOS = runtime.GOOS
	file.GOARCH = runtime.GOARCH
	file.GoMaxProcs = runtime.GOMAXPROCS(0)
	file.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	if asBaseline {
		file.Baseline = results
	} else {
		file.Current = results
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// compareBenchJSON writes to w a per-benchmark before/after delta table
// between the "current" sections of two bench JSON files (falling back
// to "baseline" when a file has no "current" section), so perf PRs can
// quote speedups mechanically. It compares each row's ns/op, which is
// the median of the recording's rounds (a file without samples holds
// one round, and compares as that round):
//
//	experiments -bench-compare old.json new.json
//
// tolerance is the regression gate in percent, with values in (0,1]
// read as fractions (0.3 == 30): benchmarks whose ns/op grew by more
// than it are flagged and make the compare return an error (non-zero
// exit), so CI and scripts only fail on regressions beyond the
// shared-container drift (±30% on this hardware class, see ROADMAP),
// not on noise. 0 disables the gate.
func compareBenchJSON(w io.Writer, oldPath, newPath string, tolerance float64) error {
	if tolerance > 0 && tolerance <= 1 {
		tolerance *= 100
	}
	load := func(path string) (map[string]benchResult, []string, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("bench-compare: %v", err)
		}
		var file benchFile
		if err := json.Unmarshal(raw, &file); err != nil {
			return nil, nil, fmt.Errorf("bench-compare: cannot parse %s: %v", path, err)
		}
		section := file.Current
		if len(section) == 0 {
			section = file.Baseline
		}
		if len(section) == 0 {
			return nil, nil, fmt.Errorf("bench-compare: %s has neither a current nor a baseline section", path)
		}
		m := make(map[string]benchResult, len(section))
		order := make([]string, 0, len(section))
		for _, r := range section {
			m[r.Name] = r
			order = append(order, r.Name)
		}
		return m, order, nil
	}
	oldM, oldOrder, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, newOrder, err := load(newPath)
	if err != nil {
		return err
	}
	var regressions []string
	fmt.Fprintf(w, "%-28s %12s %12s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "speedup")
	for _, name := range newOrder {
		nw := newM[name]
		old, ok := oldM[name]
		if !ok {
			fmt.Fprintf(w, "%-28s %12s %12.2f %9s %9s\n", name, "-", nw.NsPerOp, "new", "-")
			continue
		}
		delta := (nw.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		mark := ""
		if tolerance > 0 && delta > tolerance {
			mark = "  REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s %+.1f%%", name, delta))
		}
		fmt.Fprintf(w, "%-28s %12.2f %12.2f %+8.1f%% %8.2fx%s\n",
			name, old.NsPerOp, nw.NsPerOp, delta, old.NsPerOp/nw.NsPerOp, mark)
	}
	for _, name := range oldOrder {
		if _, ok := newM[name]; !ok {
			fmt.Fprintf(w, "%-28s %12.2f %12s %9s %9s\n", name, oldM[name].NsPerOp, "-", "gone", "-")
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench-compare: %d benchmark(s) regressed beyond the ±%.0f%% tolerance: %s",
			len(regressions), tolerance, strings.Join(regressions, ", "))
	}
	return nil
}
