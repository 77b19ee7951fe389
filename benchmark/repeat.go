package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// series is one (workload, metric) pair's values over repeated runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// runsFile is what -runs writes and -compare reads.
type runsFile struct {
	Seconds   float64                       `json:"seconds"`
	Quick     bool                          `json:"quick"`
	Seeds     []int64                       `json:"seeds"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

// repeatRuns runs every selected workload -runs times, each run in a
// fresh process exactly as a single invocation would, and records the
// median and quartiles of each end-to-end metric.
func repeatRuns(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ws := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	rf := runsFile{Seconds: o.seconds, Quick: o.quick, Workloads: map[string]map[string]*series{}}
	for i := 0; i < o.runs; i++ {
		rf.Seeds = append(rf.Seeds, o.seed+int64(i))
	}
	for _, w := range ws {
		byMetric := map[string]*series{}
		rf.Workloads[w.name] = byMetric
		for _, seed := range rf.Seeds {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-state-dir", o.stateDir, "-quick=" + strconv.FormatBool(o.quick),
			}
			var out bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = &out
			cmd.Stderr = stderr
			runErr := cmd.Run()
			line, err := lastResultLine(out.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (run: %v)", w.name, seed, err, runErr)
			}
			if runErr != nil || !line.Correct {
				return fmt.Errorf("%s seed %d: run failed: %v, correct=%v", w.name, seed, runErr, line.Correct)
			}
			for name, m := range line.Metrics {
				s := byMetric[name]
				if s == nil {
					s = &series{Unit: m.Unit}
					byMetric[name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
			fmt.Fprintf(stdout, "%s seed %d: %s\n", w.name, seed, bytes.TrimSpace(lastLine(out.Bytes())))
		}
		for _, s := range byMetric {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
	}
	printRuns(stdout, &rf)
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(&rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", o.out)
	return nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

func lastResultLine(out []byte) (resultLine, error) {
	var line resultLine
	if err := json.Unmarshal(lastLine(out), &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default exclusive method), so these spreads are the ones the
// benchmark's acceptance rule takes.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func printRuns(w io.Writer, rf *runsFile) {
	for _, wl := range sortedKeys(rf.Workloads) {
		fmt.Fprintf(w, "\n%s over seeds %v:\n", wl, rf.Seeds)
		byMetric := rf.Workloads[wl]
		for _, name := range sortedKeys(byMetric) {
			s := byMetric[name]
			fmt.Fprintf(w, "  %-18s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%% %s\n",
				name, s.Median, s.Q1, s.Q3, 100*s.spread(), s.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// specFile is the part of BENCHMARK.json this program reads.
type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareFiles checks result set b against result set a, metric by
// metric and workload by workload. A pair is a regression when b's
// median is worse than a's by more than the metric's bound, and
// unresolved when either side's run-to-run spread exceeds the bound
// (unless every run of b is better than every run of a). It reports
// whether every pair is within its bound.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec specFile
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b runsFile
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	for _, wl := range sortedKeys(a.Workloads) {
		bm, found := b.Workloads[wl]
		if !found {
			fmt.Fprintf(w, "%-12s missing from %s\n", wl, bPath)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := a.Workloads[wl][m.Name], bm[m.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(w, "%-12s %-18s missing\n", wl, m.Name)
				ok = false
				continue
			}
			worse := (sb.Median - sa.Median) / math.Abs(sa.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(sa.spread(), sb.spread())
			verdict := "within bound"
			switch {
			case spread > m.Bound && !allBetter(sa, sb, m.Better):
				verdict = "unresolved: spread exceeds bound"
				ok = false
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case -worse > m.Bound:
				verdict = "better by more than the bound"
			}
			fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %8.2f%% %7.0f%% %7.2f%%  %s\n",
				wl, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	return ok, nil
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(a, b *series, better string) bool {
	for _, x := range a.Values {
		for _, y := range b.Values {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
