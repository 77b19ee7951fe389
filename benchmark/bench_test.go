package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fib"
	"repro/internal/snapshot"
	"repro/internal/tree"
)

func loadSpec(t *testing.T) specFile {
	t.Helper()
	var s specFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	inputsOnce sync.Once
	inputs     []tenantInput
	inputsErr  error
)

func testInputs(t *testing.T) []tenantInput {
	t.Helper()
	inputsOnce.Do(func() { inputs, inputsErr = genInputs(1) })
	if inputsErr != nil {
		t.Fatal(inputsErr)
	}
	return inputs
}

// quickMain runs the program in -quick mode and returns its result
// line and standard output.
func quickMain(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-quick", "-state-dir", t.TempDir(), "-trace-dir", t.TempDir()}, args...)
	if code := benchMain(args, &out, &errb); code != 0 {
		t.Fatalf("benchmark %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	line, err := lastResultLine(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("result line %+v", line)
	}
	return line, out.String()
}

func TestQuickReportsEveryDeclaredMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	untraced, table := quickMain(t)
	traced, _ := quickMain(t, "-trace", "1")
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		for _, m := range spec.EndToEnd {
			if got, ok := untraced.Metrics[w.Name+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s/%s: got %+v (present %v), want unit %q", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			if got, ok := traced.Metrics[w.Name+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced %s/%s: got %+v (present %v), want unit %q", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	// The table above the result line carries the metrics that are not
	// on it, with their sample counts.
	for _, name := range []string{"failed_frac", "retry_frac", "recovery_s", "ack_p99_us", "gate: ok"} {
		if !strings.Contains(table, name) {
			t.Errorf("table lacks %q", name)
		}
	}
}

// The Wrap shim must expose every optional engine interface the
// wrapped algorithm has, or the traced daemon would run differently.
func TestShimForwardsOptionalInterfaces(t *testing.T) {
	m := core.NewMutable(tree.CompleteKary(63, 2), core.MutableConfig{Config: core.Config{Alpha: alpha, Capacity: 8}})
	tc := newTracer(workloads[0], 1)
	a := tc.wrap(0, snapshot.Checkpointed{MutableTC: m})
	if _, ok := a.(engine.BatchServer); !ok {
		t.Error("shim hides engine.BatchServer")
	}
	if _, ok := a.(engine.TopologyServer); !ok {
		t.Error("shim hides engine.TopologyServer")
	}
	if _, ok := a.(engine.Checkpointer); !ok {
		t.Error("shim hides engine.Checkpointer")
	}
	v, ok := a.(engine.SnapshotVerifier)
	if !ok {
		t.Fatal("shim hides engine.SnapshotVerifier")
	}
	blob, err := a.(engine.Checkpointer).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.VerifySnapshot(blob); err != nil {
		t.Errorf("verify of a good blob: %v", err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := v.VerifySnapshot(blob); err == nil {
		t.Error("shim's VerifySnapshot accepted a corrupted blob")
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	in := testInputs(t)
	for _, w := range workloads {
		o := runOpts{w: w, seed: 1, seconds: 1, quick: true, dir: t.TempDir()}
		plain, err := run(o, in, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := run(o, in, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*runResult{plain, traced} {
			if r.gateErr != nil {
				t.Fatalf("%s: %v", w.name, r.gateErr)
			}
		}
		if err := traced.tracer.checkCounts(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if err := compareLedgers(plain.ledgers, traced.ledgers); err != nil {
			t.Errorf("%s: traced ledgers differ: %v", w.name, err)
		}
	}
}

func TestGateCatchesPerturbedLedger(t *testing.T) {
	in := testInputs(t)
	w, err := workloadByName("fib-churn")
	if err != nil {
		t.Fatal(err)
	}
	r, err := run(runOpts{w: w, seed: 1, seconds: 1, quick: true, dir: t.TempDir()}, in, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.gateErr != nil {
		t.Fatal(r.gateErr)
	}
	want := make([]tenantLedger, tenants)
	for i := range want {
		tb, err := fib.NewTable(in[i].rules)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = replay(w, &in[i], tb.Tree(), int(r.ledgers[i].LastSeq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareLedgers(want, r.ledgers); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	perturb := []func(*tenantLedger){
		func(l *tenantLedger) { l.LastSeq++ },
		func(l *tenantLedger) { l.Rounds++ },
		func(l *tenantLedger) { l.Serve++ },
		func(l *tenantLedger) { l.Move += alpha },
		func(l *tenantLedger) { l.Fetched++ },
		func(l *tenantLedger) { l.Evicted-- },
	}
	for k, p := range perturb {
		bad := append([]tenantLedger(nil), want...)
		p(&bad[k%tenants])
		if err := compareLedgers(bad, r.ledgers); err == nil {
			t.Errorf("perturbation %d passed the gate", k)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		p := filepath.Join(dir, name)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
	}})
	set := func(values ...float64) *runsFile {
		s := &series{Unit: "req/s", Values: values}
		s.Q1, s.Median, s.Q3 = quartiles(values)
		return &runsFile{Workloads: map[string]map[string]*series{"fib-bulk": {"throughput_rps": s}}}
	}
	base := write("a.json", set(100, 101, 99, 100, 100))
	for _, c := range []struct {
		name    string
		b       *runsFile
		wantOK  bool
		verdict string
	}{
		{"same", set(100, 99, 101, 100, 100), true, "within bound"},
		{"slower", set(80, 81, 79, 80, 80), false, "REGRESSION"},
		{"noisy", set(60, 140, 100, 70, 130), false, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, spec, base, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}
