package engine

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// scrape GETs path from the engine's mux and returns body and status.
func scrape(e *Engine, path string) (string, int) {
	rec := httptest.NewRecorder()
	e.MetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Body.String(), rec.Code
}

// sampleLine matches one Prometheus text-format sample:
// name{label="value",...} value
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? \S+$`)

// parseExposition validates the whole body parses as Prometheus text
// format and returns sample values keyed by the full series id (name +
// label block).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("line does not parse as a Prometheus sample: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample value %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint boots a fleet with ratio monitors, serves a
// workload, and asserts the scrape exposes per-shard latency
// histograms with p50/p99/p999 series, the queue/topology/restart
// gauges, the live competitive-ratio gauge and the checkpoint cost of
// the supervised shard (1; shard 0 runs unsupervised) — all parsing as
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	const shards = 2
	trees := make([]*tree.Tree, shards)
	monitors := make([]*metrics.RatioMonitor, shards)
	for i := range trees {
		trees[i] = tree.CompleteKary(15, 2)
		monitors[i] = metrics.NewRatioMonitor(metrics.RatioConfig{
			Tree: trees[i], Alpha: 4, Capacity: 5, Window: 64, Exact: true,
		})
	}
	e := New(Config{
		Shards: shards,
		NewShard: func(i int) Algorithm {
			m := core.NewMutable(trees[i], core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 5}})
			if i == 1 {
				return snapshot.Checkpointed{MutableTC: m}
			}
			return m
		},
		RatioMonitors: monitors,
	})
	defer e.Close()

	rng := rand.New(rand.NewSource(31))
	for s := 0; s < shards; s++ {
		input := trace.RandomMixed(rng, trees[s], 2048)
		for off := 0; off < len(input); off += 256 {
			if err := e.Submit(s, input[off:off+256]); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Drain()

	if body, code := scrape(e, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	body, code := scrape(e, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	samples := parseExposition(t, body)

	for s := 0; s < shards; s++ {
		lbl := fmt.Sprintf(`{shard="%d",algorithm="TC"}`, s)
		for _, q := range []string{"0.5", "0.99", "0.999"} {
			id := fmt.Sprintf(`treecache_request_latency_quantile_ns{shard="%d",algorithm="TC",quantile="%s"}`, s, q)
			if _, ok := samples[id]; !ok {
				t.Fatalf("missing latency quantile series %s\n%s", id, body)
			}
		}
		for _, name := range []string{
			"treecache_requests_total", "treecache_batches_total",
			"treecache_queue_depth", "treecache_topology_applied_total",
			"treecache_topology_errors_total", "treecache_restarts_total",
			"treecache_cache_peak", "treecache_batch_max_ns",
			"treecache_request_latency_ns_count", "treecache_request_latency_ns_sum",
			"treecache_competitive_ratio", "treecache_competitive_ratio_worst",
			"treecache_ratio_windows_total",
			"treecache_checkpoint_ns_total", "treecache_checkpoint_bytes",
		} {
			if _, ok := samples[name+lbl]; !ok {
				t.Fatalf("missing series %s%s\n%s", name, lbl, body)
			}
		}
		if got := samples["treecache_requests_total"+lbl]; got != 2048 {
			t.Fatalf("shard %d requests_total = %v, want 2048", s, got)
		}
		if got := samples["treecache_request_latency_ns_count"+lbl]; got != 2048 {
			t.Fatalf("shard %d latency count = %v, want 2048 (request-weighted)", s, got)
		}
		// The supervised shard checkpointed at construction and at the
		// Drain point; the unsupervised one never does.
		ns, size := samples["treecache_checkpoint_ns_total"+lbl], samples["treecache_checkpoint_bytes"+lbl]
		if supervised := s == 1; supervised != (ns > 0) || supervised != (size > 0) {
			t.Fatalf("shard %d (supervised %v): checkpoint_ns_total = %v, checkpoint_bytes = %v", s, supervised, ns, size)
		}
		if ratio := samples["treecache_competitive_ratio"+lbl]; ratio <= 0 {
			t.Fatalf("shard %d competitive ratio = %v, want > 0", s, ratio)
		}
		if inf := fmt.Sprintf(`treecache_request_latency_ns_bucket{shard="%d",algorithm="TC",le="+Inf"}`, s); samples[inf] != 2048 {
			t.Fatalf("+Inf bucket = %v, want 2048", samples[inf])
		}
	}
	if samples["treecache_shards"] != shards {
		t.Fatalf("treecache_shards = %v", samples["treecache_shards"])
	}

	// The engine-side histogram accessor agrees with the scrape.
	h := e.Histogram(0)
	if h.Count() != 2048 {
		t.Fatalf("Histogram(0).Count = %d", h.Count())
	}
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatalf("p99 %d < p50 %d", h.Quantile(0.99), h.Quantile(0.5))
	}
	if e.RatioMonitor(0) != monitors[0] || e.RatioMonitor(1) != monitors[1] {
		t.Fatal("RatioMonitor accessor lost the attached monitors")
	}
	// Observations are batch-granular: each 256-request batch crosses
	// the 64-request window threshold and evaluates once.
	if w := monitors[0].Windows(); w != 2048/256 {
		t.Fatalf("monitor evaluated %d windows, want %d", w, 2048/256)
	}
}

// TestHealthReadinessSplit pins the engine's liveness contract:
// /healthz is green while the engine is open — through serving and a
// drain — and red once Closed. Readiness is the daemon's own gate
// (internal/server), not the engine's.
func TestHealthReadinessSplit(t *testing.T) {
	tr := tree.CompleteKary(15, 2)
	e := New(Config{
		Shards: 1,
		NewShard: func(i int) Algorithm {
			return core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 5}})
		},
	})

	check := func(stage string, want int) {
		t.Helper()
		if _, code := scrape(e, "/healthz"); code != want {
			t.Fatalf("%s: /healthz = %d, want %d", stage, code, want)
		}
	}

	check("fresh", 200)
	if err := e.Submit(0, trace.Trace{trace.Pos(3), trace.Neg(1)}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	check("drained", 200)
	e.Close()
	check("closed", 503)
}

// TestStatsFleetMaxima pins the fleet aggregation of the per-shard
// maxima: Stats must surface MaxBatch/MaxCache as fleet-wide maxima
// (they were silently dropped before), and the merged latency
// histogram must cover every shard's samples.
func TestStatsFleetMaxima(t *testing.T) {
	const shards = 3
	trees := []*tree.Tree{tree.Star(400), tree.CompleteKary(63, 2), tree.Path(40)}
	caps := []int{200, 31, 8}
	e := New(Config{
		Shards: shards,
		NewShard: func(i int) Algorithm {
			return core.New(trees[i], core.Config{Alpha: 4, Capacity: caps[i]})
		},
	})
	defer e.Close()
	rng := rand.New(rand.NewSource(77))
	for s := 0; s < shards; s++ {
		// Different batch sizes per shard so the per-shard maxima differ.
		input := trace.RandomMixed(rng, trees[s], 1000*(s+1))
		if err := e.Submit(s, input); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	st := e.Stats()

	var wantCache int
	var wantBatch int64
	var wantLat int64
	for _, ss := range st.Shards {
		if ss.MaxCache > wantCache {
			wantCache = ss.MaxCache
		}
		if ss.MaxBatch > wantBatch {
			wantBatch = ss.MaxBatch
		}
		wantLat += ss.Latency.Count()
		if ss.MaxCache == 0 || ss.MaxBatch == 0 {
			t.Fatalf("shard %d reported zero maxima: %+v", ss.Shard, ss)
		}
	}
	if st.MaxCache != wantCache || st.MaxCache == 0 {
		t.Fatalf("fleet MaxCache = %d, want max over shards %d", st.MaxCache, wantCache)
	}
	if st.MaxBatch != wantBatch || st.MaxBatch == 0 {
		t.Fatalf("fleet MaxBatch = %d, want max over shards %d", st.MaxBatch, wantBatch)
	}
	if st.Latency.Count() != wantLat || wantLat != st.Rounds {
		t.Fatalf("fleet latency count = %d, want %d (= rounds %d)", st.Latency.Count(), wantLat, st.Rounds)
	}
	// The fleet maximum must come from a specific shard, not exceed all.
	found := false
	for _, ss := range st.Shards {
		if ss.MaxCache == st.MaxCache {
			found = true
		}
	}
	if !found {
		t.Fatal("fleet MaxCache matches no shard")
	}
}

// TestMetricsScrapeRace hammers /metrics and Stats concurrently with
// Submit/SubmitMulti/ApplyTopology and a racing Close, verifying no
// torn reads (every scrape parses; the accounting identity holds) and
// that per-shard request counters are monotone across scrapes. Run
// under -race in CI.
func TestMetricsScrapeRace(t *testing.T) {
	const shards = 3
	trees := make([]*tree.Tree, shards)
	for i := range trees {
		trees[i] = tree.CompleteKary(127, 2)
	}
	e := New(Config{
		Shards: shards,
		NewShard: func(i int) Algorithm {
			return core.NewMutable(trees[i], core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 32}})
		},
		QueueLen: 4,
	})

	rng := rand.New(rand.NewSource(55))
	mt := trace.MultiTenant(rng, trees, trace.MultiTenantConfig{
		Rounds: 6000, TenantS: 1.0, NodeS: 1.0, NegFrac: 0.2, BurstFrac: 0.02, BurstLen: 8,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Submitters: direct batches, a multi-tenant stream, topology churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(56))
		for i := 0; i < 200; i++ {
			s := i % shards
			input := trace.RandomMixed(rng, trees[s], 64)
			if err := e.Submit(s, input); err != nil {
				return // ErrClosed once the racing Close lands
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.SubmitMulti(mt, 128)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// Deleting a distinct leaf per iteration; rejections (already
			// deleted) are counted, not fatal.
			leaf := tree.NodeID(126 - i%60)
			if err := e.ApplyTopology(i%shards, []trace.Mutation{trace.DeleteMut(leaf)}); err != nil {
				return
			}
		}
	}()

	// Scrapers: monotone per-shard counters, every body parses.
	errs := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]float64, shards)
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, code := scrape(e, "/metrics")
				if code != 200 {
					errs <- fmt.Errorf("scrape status %d", code)
					return
				}
				samples := parseExpositionErr(body)
				if samples == nil {
					errs <- fmt.Errorf("scrape did not parse:\n%s", body)
					return
				}
				for s := 0; s < shards; s++ {
					id := fmt.Sprintf(`treecache_requests_total{shard="%d",algorithm="TC"}`, s)
					v, ok := samples[id]
					if !ok {
						errs <- fmt.Errorf("missing %s", id)
						return
					}
					if v < last[s] {
						errs <- fmt.Errorf("shard %d requests_total went backwards: %v -> %v", s, last[s], v)
						return
					}
					last[s] = v
				}
			}
		}()
	}
	// A Stats poller exercising the non-HTTP read path concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			if st.Serve+st.Move != st.Total() {
				errs <- fmt.Errorf("stats identity broken")
				return
			}
		}
	}()

	e.Drain()
	e.Close() // races the submitters; they exit on ErrClosed
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The endpoint keeps serving after Close; /healthz flips to 503.
	if _, code := scrape(e, "/metrics"); code != 200 {
		t.Fatalf("post-Close scrape status %d", code)
	}
	if _, code := scrape(e, "/healthz"); code != 503 {
		t.Fatalf("post-Close /healthz = %d, want 503", code)
	}
}

// parseExpositionErr is parseExposition without the testing.T (for use
// inside goroutines); returns nil when any line fails to parse.
func parseExpositionErr(body string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			return nil
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil
		}
		out[line[:i]] = v
	}
	return out
}
