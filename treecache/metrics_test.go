package treecache_test

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/treecache"
)

// TestEngineObservability exercises the facade's observability
// surface: latency histograms, the competitive-ratio monitor, and the
// /metrics + /healthz endpoints, end to end through NewEngine.
func TestEngineObservability(t *testing.T) {
	trees := []*treecache.Tree{
		treecache.CompleteKary(15, 2), // small: exact-DP ratio yardstick
		treecache.CompleteKary(1023, 2),
	}
	e := treecache.NewEngine(trees, treecache.Options{Alpha: 4, Capacity: 5}, treecache.EngineOptions{
		RatioWindow: 128,
	})
	defer e.Close()

	rng := rand.New(rand.NewSource(9))
	for s := range trees {
		var batch []treecache.Request
		for i := 0; i < 1024; i++ {
			v := treecache.NodeID(rng.Intn(trees[s].Len()))
			if rng.Intn(4) == 0 {
				batch = append(batch, treecache.Neg(v))
			} else {
				batch = append(batch, treecache.Pos(v))
			}
		}
		if err := e.SubmitTrace(s, batch); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()

	for s := range trees {
		h := e.Histogram(s)
		if h.Count() != 1024 {
			t.Fatalf("shard %d histogram count = %d, want 1024", s, h.Count())
		}
		if h.Quantile(0.999) < h.Quantile(0.5) {
			t.Fatalf("shard %d p999 < p50", s)
		}
		m := e.RatioMonitor(s)
		if m == nil {
			t.Fatalf("shard %d has no ratio monitor", s)
		}
		ratio, ok := m.Ratio()
		if !ok || ratio <= 0 {
			t.Fatalf("shard %d ratio = %v ok=%v", s, ratio, ok)
		}
	}

	st := e.Stats()
	if st.Latency.Count() != 2048 {
		t.Fatalf("fleet latency count = %d, want 2048", st.Latency.Count())
	}
	if st.MaxCache == 0 || st.MaxBatch == 0 {
		t.Fatalf("fleet maxima not aggregated: %+v", st)
	}

	rec := httptest.NewRecorder()
	e.MetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`treecache_request_latency_quantile_ns{shard="0",algorithm="TC",quantile="0.999"}`,
		`treecache_competitive_ratio{shard="1",algorithm="TC"}`,
		`treecache_queue_depth{shard="0",algorithm="TC"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	rec = httptest.NewRecorder()
	e.MetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz status %d", rec.Code)
	}

	// RatioWindow 0 attaches nothing.
	plain := treecache.NewEngine(trees[:1], treecache.Options{Alpha: 4, Capacity: 5}, treecache.EngineOptions{})
	defer plain.Close()
	if plain.RatioMonitor(0) != nil {
		t.Fatal("monitor attached without RatioWindow")
	}
}

// TestEngineRatioSkipsAnnouncedRules: a ratio window that requests a
// rule announced by ApplyTopology cannot be scored against the tree the
// monitor was built with. It is skipped and counted, and the shard
// keeps serving; a later window of original rules is scored.
func TestEngineRatioSkipsAnnouncedRules(t *testing.T) {
	tr := treecache.CompleteKary(63, 2)
	e := treecache.NewEngine([]*treecache.Tree{tr}, treecache.Options{Alpha: 4, Capacity: 8},
		treecache.EngineOptions{RatioWindow: 4})
	defer e.Close()
	if err := e.ApplyTopology(0, []treecache.Mutation{treecache.InsertMut(63, 5)}); err != nil {
		t.Fatal(err)
	}
	announced := treecache.Pos(treecache.NodeID(tr.Len()))
	if err := e.Submit(0, announced, announced, announced, announced, announced); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(0, treecache.Pos(1), treecache.Pos(2), treecache.Pos(1), treecache.Pos(2)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	m := e.RatioMonitor(0)
	if m.Skipped() != 1 || m.Windows() != 1 {
		t.Fatalf("%d windows skipped, %d scored; want 1 and 1", m.Skipped(), m.Windows())
	}
	if st := e.Stats(); st.Rounds != 9 || st.TopoApplied != 1 {
		t.Fatalf("rounds %d, topology applied %d; want 9 and 1", st.Rounds, st.TopoApplied)
	}
	rec := httptest.NewRecorder()
	e.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := `treecache_ratio_windows_skipped_total{shard="0",algorithm="TC"} 1`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("scrape missing %q:\n%s", want, rec.Body.String())
	}
}
