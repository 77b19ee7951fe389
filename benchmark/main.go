// Command benchmark is the end-to-end benchmark of treecached, the
// tree-caching daemon, on FIB-caching traffic. It boots the daemon
// in-process with cmd/treecached's default settings, drives it over
// loopback TCP with internal/client from two closed-loop clients (one
// tenant each), measures a fixed amount of work derived from -seed,
// and ends every run with a correctness gate that replays each
// tenant's acknowledged frames locally and compares ledgers.
//
// From the repository root:
//
//	bash benchmark/run.sh                          # every workload, one run each
//	bash benchmark/run.sh -workload fib-small -seed 3 -seconds 15
//	bash benchmark/run.sh -workload fib-bulk -trace 1   # plus a traced run: spans and per-layer table
//	bash benchmark/run.sh -runs 5 -out a.json      # repeated runs: median and quartiles
//	bash benchmark/run.sh -compare a.json b.json   # check two result sets against BENCHMARK.json bounds
//
// The last line of standard output is one JSON object: correct,
// attempted and failed frames, and the metrics — the end-to-end set,
// or with -trace 1 the per-layer set — as declared in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is a metric the JSON result line carries.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, as BENCHMARK.json
// declares them. failed_frac, retry_frac and recovery_s are printed in
// the table above the result line: the first two read 0 on a healthy
// daemon and recovery exists only on fib-durable, so none of them can
// be a metric every workload reports as a non-zero value.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"ack_p50_us", "us"},
	{"ack_p99_us", "us"},
	{"cost_per_request", "cost/req"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run's result line: the layer
// table's entries that mean something on every workload. The timing
// metrics of layers only one workload exercises (WAL fsync and replay,
// topology calls) and server.rtt_us_p50, which has no qualifying
// frames when acks wait for fsync, are in the trace directory's layer
// table only.
var perLayer = []string{
	"core.serve_ns_per_req",
	"core.busy_share",
	"core.fetched_per_kreq",
	"core.evicted_per_kreq",
	"snapshot.capture_ms_p50",
	"snapshot.captures_per_mreq",
	"snapshot.blob_kib",
	"snapshot.busy_share",
	"snapshot.verify_us_p50",
	"engine.busy_frac",
	"engine.self_ns_per_req",
	"engine.dispatch_wait_us_p50",
	"engine.dispatch_wait_us_p99",
	"engine.queue_depth_mean",
	"engine.checkpoint_accept_ratio",
	"wire.encode_ns_per_req",
	"wire.decode_ns_per_req",
	"wire.bytes_per_req",
	"wal.records_per_fsync",
	"wal.bytes_per_req",
	"ack_p999_us",
	"client.retry_frac",
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceDir  string
	stateDir  string
	quick     bool
	runs      int
	out       string
	compare   bool
	spec      string
	remaining []string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: fib-bulk|fib-small|fib-durable|fib-churn|all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "timed window length the fixed work is sized for, seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats the run traced and reports the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its spans and layer table")
	fs.StringVar(&o.stateDir, "state-dir", ".bench_build/state", "directory for fib-durable's WAL state")
	fs.BoolVar(&o.quick, "quick", false, "a few hundred frames per workload (smoke test)")
	fs.IntVar(&o.runs, "runs", 0, "run each workload N times, seeds seed..seed+N-1, and record median and quartiles")
	fs.StringVar(&o.out, "out", ".bench_build/runs.json", "where -runs writes its results")
	fs.BoolVar(&o.compare, "compare", false, "compare two -runs result files: -compare a.json b.json")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark declaration holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.remaining = fs.Args()
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	switch {
	case o.compare:
		if len(o.remaining) != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		ok, err := compareFiles(stdout, o.spec, o.remaining[0], o.remaining[1])
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	case o.runs > 0:
		if err := repeatRuns(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	ws := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = []*workload{w}
	}
	in, err := genInputs(o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: inputs:", err)
		return 1
	}
	fmt.Fprintf(stdout, "treecached benchmark: seed %d, %d tenants, GOMAXPROCS %d\n", o.seed, tenants, runtime.GOMAXPROCS(0))
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		res, err := benchWorkload(o, w, in, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(ws) > 1 {
				name = w.name + "/" + name
			}
			line.Metrics[name] = m
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// benchWorkload runs one workload untraced and, with -trace 1, again
// traced, printing the tables and returning the result line.
func benchWorkload(o options, w *workload, in []tenantInput, stdout io.Writer) (resultLine, error) {
	ro := runOpts{w: w, seed: o.seed, seconds: o.seconds, quick: o.quick, dir: o.stateDir}
	r, err := run(ro, in, false)
	if err != nil {
		return resultLine{}, err
	}
	printRun(stdout, r)
	line := resultLine{
		Correct: r.gateErr == nil, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	if o.trace == 0 {
		vals := e2eValues(r)
		for _, m := range endToEnd {
			line.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		return line, nil
	}

	rt, err := run(ro, in, true)
	if err != nil {
		return resultLine{}, err
	}
	if rt.gateErr != nil {
		line.Correct = false
		fmt.Fprintf(stdout, "  traced run gate: FAIL: %v\n", rt.gateErr)
	}
	if err := rt.tracer.checkCounts(); err != nil {
		line.Correct = false
		fmt.Fprintf(stdout, "  traced run: FAIL: %v\n", err)
	}
	if err := compareLedgers(r.ledgers, rt.ledgers); err != nil {
		line.Correct = false
		fmt.Fprintf(stdout, "  traced run differs from the untraced one: %v\n", err)
	}
	overhead := ratio(r.throughputRPS-rt.throughputRPS, r.throughputRPS)
	base := filepath.Join(o.traceDir, w.name)
	if err := rt.tracer.writeSpans(base + ".spans.csv.gz"); err != nil {
		return resultLine{}, err
	}
	if err := writeTraceFile(base+".layers.json", traceFile{
		Workload: w.name, Seed: o.seed, WindowS: rt.window.Seconds(),
		UntracedRPS: r.throughputRPS, TracedRPS: rt.throughputRPS, OverheadShare: overhead,
		Layers: rt.layers,
	}); err != nil {
		return resultLine{}, err
	}
	printLayers(stdout, rt.layers, overhead, base)
	line.Attempted, line.Failed = rt.attempted, rt.failed
	for _, name := range perLayer {
		m := rt.layers[name]
		line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return line, nil
}

// e2eValues maps the end-to-end metric names to a run's values.
func e2eValues(r *runResult) map[string]float64 {
	return map[string]float64{
		"throughput_rps":   r.throughputRPS,
		"ack_p50_us":       quantileSorted(r.lat, 0.5) / 1e3,
		"ack_p99_us":       quantileSorted(r.lat, 0.99) / 1e3,
		"cost_per_request": r.costPerRequest,
		"setup_s":          r.setupS,
	}
}

// printRun prints a run's end-to-end table with the sample count
// behind every value.
func printRun(w io.Writer, r *runResult) {
	frames := r.attempted
	fmt.Fprintf(w, "\n%s: %d warm-up + %d timed cycles per tenant, %d-request frames; timed window %.3f s\n",
		r.w.name, r.warm, r.timed, r.w.frame, r.window.Seconds())
	row := func(name string, v float64, unit, note string) {
		fmt.Fprintf(w, "  %-18s %16.6g %-9s %s\n", name, v, unit, note)
	}
	vals := e2eValues(r)
	n := len(r.lat)
	row("throughput_rps", vals["throughput_rps"], "req/s", fmt.Sprintf("%d timed requests, acked and drained", r.timedReqs))
	row("ack_p50_us", vals["ack_p50_us"], "us", fmt.Sprintf("n=%d timed serve frames", n))
	row("ack_p99_us", vals["ack_p99_us"], "us", fmt.Sprintf("n=%d, %d beyond", n, n-int(math.Ceil(0.99*float64(n)))))
	row("cost_per_request", vals["cost_per_request"], "cost/req", fmt.Sprintf("(Serve+Move)/requests over %d requests", r.requests))
	row("failed_frac", ratio(float64(r.failed), float64(frames)), "1", fmt.Sprintf("%d of %d frames", r.failed, frames))
	row("retry_frac", ratio(float64(r.retries), float64(frames)), "1", fmt.Sprintf("%d retries over %d frames", r.retries, frames))
	row("setup_s", vals["setup_s"], "s", fmt.Sprintf("median of %d set-ups", len(r.setups)))
	if r.w.wal {
		row("recovery_s", r.recoveryS, "s", fmt.Sprintf("median of %d cold restarts, %d requests replayed", len(r.recoveries), r.replayedReqs))
	} else {
		fmt.Fprintf(w, "  %-18s %16s %-9s %s\n", "recovery_s", "-", "s", "fib-durable only")
	}
	if r.gateErr != nil {
		fmt.Fprintf(w, "  gate: FAIL: %v\n", r.gateErr)
	} else {
		fmt.Fprintf(w, "  gate: ok, %d tenants' ledgers and sequence numbers match local replay\n", len(r.ledgers))
	}
}

// printLayers prints a traced run's per-layer table.
func printLayers(w io.Writer, l layerTable, overhead float64, base string) {
	fmt.Fprintf(w, "  traced run: tracing overhead %.2f%% of untraced throughput; spans and layer table in %s.*\n", 100*overhead, base)
	for _, name := range sortedKeys(l) {
		m := l[name]
		fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}
