// Command experiments regenerates every evaluation artefact of the
// reproduction (DESIGN.md §4, EXPERIMENTS.md). Each experiment prints
// one or more tables; the rows are the reproduction's equivalent of
// the paper's (theoretical) claims.
//
// Usage:
//
//	experiments -run all                    # run everything (few minutes)
//	experiments -run e1,e4,e5               # run a subset
//	experiments -run e7 -csv                # emit CSV instead of aligned tables
//	experiments -bench-json BENCH_core.json # record the benchmark table
//	experiments -bench-json BENCH_core.json -bench-baseline
//	                                        # record them as the baseline section
//	experiments -bench-json out.json -bench-cpus 1,2
//	                                        # sweep the goroutine rows across GOMAXPROCS
//	experiments -bench-compare old.json new.json
//	                                        # before/after delta table
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment ids (e1..e8) or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	benchJSON := flag.String("bench-json", "", "run the benchmark table (experiments.Benches) and merge the results into this JSON file, then exit")
	benchBaseline := flag.Bool("bench-baseline", false, "with -bench-json, store results under the persistent 'baseline' section instead of 'current'")
	benchCompare := flag.Bool("bench-compare", false, "compare two bench JSON files (args: old.json new.json) and print a per-benchmark delta table, then exit")
	benchTolerance := flag.Float64("bench-tolerance", 30, "with -bench-compare, exit non-zero only when a benchmark's ns/op regressed by more than this percentage (matches the ±30% container drift; 0 disables the gate; values in (0,1] are read as fractions, so 0.3 == 30)")
	benchCPUs := flag.String("bench-cpus", "", "with -bench-json, comma-separated GOMAXPROCS settings to sweep the rows that start goroutines (the engine and daemon rows) across (e.g. '1,2'); empty = ambient setting only")
	flag.Parse()

	cpus, err := parseCPUList(*benchCPUs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *benchCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: experiments -bench-compare [-bench-tolerance pct] old.json new.json")
			os.Exit(2)
		}
		if err := compareBenchJSON(os.Stdout, flag.Arg(0), flag.Arg(1), *benchTolerance); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := emitBenchJSON(*benchJSON, *benchBaseline, cpus); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchCPUs != "" {
		fmt.Fprintln(os.Stderr, "-bench-cpus only applies with -bench-json")
		os.Exit(2)
	}

	ids := experiments.IDs()
	if *runFlag != "all" {
		ids = strings.Split(*runFlag, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" {
			continue
		}
		start := time.Now()
		reports, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range reports {
			fmt.Printf("=== %s: %s\n", r.ID, r.Title)
			if *csv {
				r.Table.CSV(os.Stdout)
			} else {
				r.Table.Render(os.Stdout)
			}
			for _, n := range r.Notes {
				fmt.Printf("note: %s\n", n)
			}
			fmt.Println()
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// parseCPUList parses the -bench-cpus value: a comma-separated list of
// positive GOMAXPROCS settings. Empty means "ambient setting only".
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	cpus := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-bench-cpus: %q is not a positive integer", p)
		}
		cpus = append(cpus, n)
	}
	return cpus, nil
}
