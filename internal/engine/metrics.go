package engine

import (
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// Histogram returns a copy of shard i's request-latency histogram as
// of the shard's last completed batch. Safe to call at any time.
func (e *Engine) Histogram(i int) metrics.Histogram { return e.shards[i].pub.Load().Latency }

// RatioMonitor returns shard i's attached competitive-ratio monitor,
// or nil when none was configured.
func (e *Engine) RatioMonitor(i int) *metrics.RatioMonitor {
	return e.shards[i].ratio
}

// MetricsHandler returns the Prometheus text-format exposition of the
// fleet's counters, gauges, per-shard latency histograms and (when
// ratio monitors are attached) the live competitive-ratio gauges. Each
// request takes one consistent Stats snapshot; the handler is safe for
// concurrent use and keeps working after Close (final counters stay
// scrapeable through shutdown).
func (e *Engine) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.writeMetrics(w)
	})
}

// MetricsMux returns a ServeMux with the operational endpoints a
// serving daemon mounts as-is:
//
//   - /metrics — Prometheus exposition.
//   - /healthz — liveness: 200 "ok" while the engine process is
//     serving or can still drain, 503 only once Closed. Liveness stays
//     green through drain so an orchestrator does not kill a daemon
//     that is flushing its queues.
func (e *Engine) MetricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", e.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		e.mu.RLock()
		closed := e.closed
		e.mu.RUnlock()
		if closed {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// latencyQuantiles are the summary quantiles exported per shard.
var latencyQuantiles = []float64{0.5, 0.99, 0.999}

// writeMetrics emits every metric family from one Stats snapshot.
func (e *Engine) writeMetrics(w http.ResponseWriter) {
	st := e.Stats()
	x := metrics.NewWriter(w)

	labels := make([][]metrics.Label, len(st.Shards))
	for i, ss := range st.Shards {
		labels[i] = []metrics.Label{
			{Key: "shard", Value: strconv.Itoa(ss.Shard)},
			{Key: "algorithm", Value: ss.Algorithm},
		}
	}
	counter := func(name, help string, field func(ShardStats) int64) {
		x.Header(name, "counter", help)
		for i, ss := range st.Shards {
			x.Int(name, labels[i], field(ss))
		}
	}
	gauge := func(name, help string, field func(ShardStats) int64) {
		x.Header(name, "gauge", help)
		for i, ss := range st.Shards {
			x.Int(name, labels[i], field(ss))
		}
	}

	x.Header("treecache_shards", "gauge", "Number of shards in the fleet.")
	x.Int("treecache_shards", nil, int64(len(st.Shards)))

	counter("treecache_requests_total", "Requests served, from the algorithm's own round count (restored state included; a request to a withdrawn rule is free and not a round).",
		func(s ShardStats) int64 { return s.Rounds })
	counter("treecache_batches_total", "Batches served.",
		func(s ShardStats) int64 { return s.Batches })
	counter("treecache_serve_cost_total", "Accumulated serving cost (paid requests).",
		func(s ShardStats) int64 { return s.Serve })
	counter("treecache_move_cost_total", "Accumulated movement cost (alpha per node moved).",
		func(s ShardStats) int64 { return s.Move })
	counter("treecache_fetched_total", "Nodes fetched into the cache.",
		func(s ShardStats) int64 { return s.Fetched })
	counter("treecache_evicted_total", "Nodes evicted from the cache.",
		func(s ShardStats) int64 { return s.Evicted })
	counter("treecache_busy_ns_total", "Wall time spent serving batches, nanoseconds.",
		func(s ShardStats) int64 { return s.BusyNs })
	counter("treecache_topology_applied_total", "Topology mutations applied.",
		func(s ShardStats) int64 { return s.TopoApplied })
	counter("treecache_topology_errors_total", "Topology mutations rejected.",
		func(s ShardStats) int64 { return s.TopoErrs })
	counter("treecache_restarts_total", "Supervised panic recoveries.",
		func(s ShardStats) int64 { return s.Restarts })
	counter("treecache_checkpoints_total", "Accepted state captures (supervision checkpoints, and Checkpoint captures on unsupervised shards).",
		func(s ShardStats) int64 { return s.Checkpoints })
	counter("treecache_checkpoint_errors_total", "Failed or rejected checkpoint captures.",
		func(s ShardStats) int64 { return s.CkptErrs })
	counter("treecache_dropped_total", "Messages dropped after exhausting panic retries.",
		func(s ShardStats) int64 { return s.Dropped })
	counter("treecache_checkpoint_ns_total", "Wall time spent capturing and verifying state, accepted or not, nanoseconds.",
		func(s ShardStats) int64 { return s.CkptNs })

	gauge("treecache_queue_depth", "Shard queue occupancy at scrape time.",
		func(s ShardStats) int64 { return int64(s.QueueDepth) })
	gauge("treecache_cache_peak", "Peak cache occupancy, from the algorithm (restored state included).",
		func(s ShardStats) int64 { return int64(s.MaxCache) })
	gauge("treecache_batch_max_ns", "Slowest single batch, nanoseconds.",
		func(s ShardStats) int64 { return s.MaxBatch })
	gauge("treecache_checkpoint_bytes", "Size of the last accepted state capture, bytes.",
		func(s ShardStats) int64 { return s.CkptBytes })

	x.Header("treecache_request_latency_ns", "histogram",
		"Amortized per-request service latency (batch wall time / batch size), request-weighted.")
	for i := range st.Shards {
		x.Histogram("treecache_request_latency_ns", labels[i], &st.Shards[i].Latency)
	}
	x.Header("treecache_request_latency_quantile_ns", "gauge",
		"Request-latency quantiles reconstructed from the shard histogram (p50/p99/p999).")
	for i := range st.Shards {
		x.Quantiles("treecache_request_latency_quantile_ns", labels[i], &st.Shards[i].Latency, latencyQuantiles...)
	}

	if e.anyRatio() {
		x.Header("treecache_competitive_ratio", "gauge",
			"Live competitive ratio: online cost / offline optimum over the most recent window.")
		e.eachRatio(func(i int, m *metrics.RatioMonitor) {
			if ratio, ok := m.Ratio(); ok {
				x.Sample("treecache_competitive_ratio", labels[i], ratio)
			}
		})
		x.Header("treecache_competitive_ratio_worst", "gauge",
			"Maximum window competitive ratio observed since start.")
		e.eachRatio(func(i int, m *metrics.RatioMonitor) {
			x.Sample("treecache_competitive_ratio_worst", labels[i], m.Worst())
		})
		x.Header("treecache_ratio_windows_total", "counter",
			"Competitive-ratio windows evaluated.")
		e.eachRatio(func(i int, m *metrics.RatioMonitor) {
			x.Int("treecache_ratio_windows_total", labels[i], m.Windows())
		})
	}
}

func (e *Engine) anyRatio() bool {
	for _, s := range e.shards {
		if s.ratio != nil {
			return true
		}
	}
	return false
}

func (e *Engine) eachRatio(fn func(i int, m *metrics.RatioMonitor)) {
	for i, s := range e.shards {
		if s.ratio != nil {
			fn(i, s.ratio)
		}
	}
}
