package treecache

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/trace"
)

// TenantRequest tags a Request with the tenant (engine shard) whose
// tree it targets.
type TenantRequest = trace.TenantRequest

// MultiTrace is a multi-tenant request sequence; see
// internal/trace.MultiTrace for the ordering guarantees and the
// "<tenant>:<sign><node>" text format (ReadMultiTrace / Write).
type MultiTrace = trace.MultiTrace

// ReadMultiTrace parses the multi-tenant text format.
var ReadMultiTrace = trace.ReadMulti

// MultiTenantConfig parameterises the fleet workload generator.
type MultiTenantConfig = trace.MultiTenantConfig

// MultiTenantWorkload generates a Zipf-skewed multi-tenant workload
// with correlated bursts; see internal/trace.MultiTenant.
var MultiTenantWorkload = trace.MultiTenant

// FIBUpdateReplay generates a fleet-wide FIB-update replay; see
// internal/trace.FIBUpdateReplay.
var FIBUpdateReplay = trace.FIBUpdateReplay

// EngineStats is a fleet's per-shard counters plus their totals (an
// embedded ShardStats); see internal/engine.Stats.
type EngineStats = engine.Stats

// ShardStats is one shard's counters; see internal/engine.ShardStats.
type ShardStats = engine.ShardStats

// LatencyHistogram is a zero-allocation fixed-bucket (log-linear)
// latency histogram; see internal/metrics.Histogram. Each shard
// records its amortized per-request service latency into one,
// published with the shard's stats after every batch; query quantiles
// with Quantile(0.5), Quantile(0.99), Quantile(0.999).
type LatencyHistogram = metrics.Histogram

// RatioMonitor is the online competitive-ratio monitor: it streams the
// cost ledger against the offline optimum (internal/opt) on sliding
// windows and exposes the live ratio — the paper's guarantee as an SLO
// gauge. See internal/metrics.RatioMonitor for the windowed-estimate
// caveat.
type RatioMonitor = metrics.RatioMonitor

// EngineOptions tunes the sharded serving engine beyond the per-shard
// algorithm options.
type EngineOptions struct {
	// QueueLen is the per-shard batch queue capacity; Submit blocks
	// while a shard's queue is full. 0 selects the engine's default
	// (engine.DefaultQueueLen, 64 messages).
	QueueLen int
	// CheckpointEvery sets the supervision checkpoint cadence in
	// served messages: each shard snapshots its cache every that many
	// messages (and at Drain points), journals the messages in
	// between, and on a panic restores the last checkpoint and replays
	// the journal — no accepted batch lost or double-served. 0 selects
	// the engine's default (engine.DefaultCheckpointEvery, 32
	// messages); a negative value disables supervision (a shard panic
	// then propagates and crashes the process, the pre-supervision
	// behaviour).
	CheckpointEvery int
	// RatioWindow, when > 0, attaches an online competitive-ratio
	// monitor to every shard: each monitor accumulates the shard's
	// request stream plus exact cost ledger deltas and, every
	// RatioWindow requests, computes the offline optimum of the window
	// (the exact DP for trees small enough for it, the best-static
	// knapsack otherwise) and updates the live ratio gauge exported by
	// MetricsHandler. Windows are scored against the tree the engine
	// was built with: a window that requests a rule announced by
	// ApplyTopology is skipped, not scored, and counted
	// (RatioMonitor.Skipped, treecache_ratio_windows_skipped_total),
	// while a window of original rules is scored against the original
	// topology even after mutations changed it.
	RatioWindow int
}

// Engine error sentinels: ErrEngineClosed reports a Submit/Drain after
// Close; ErrEngineOverloaded reports a TrySubmit against a full shard
// queue (apply backpressure and retry, or drop).
var (
	ErrEngineClosed     = engine.ErrClosed
	ErrEngineOverloaded = engine.ErrOverloaded
)

// Engine is a goroutine-safe fleet of independent caches — one TC
// instance per tree/tenant, each confined to its own worker goroutine
// (single-writer shards, lock-free serve path). Submit routes batches
// to shards; Drain waits for completion; Stats aggregates the fleet.
// Every dispatched batch is served through Cache.ServeBatch, so
// correlated bursts inside a batch are coalesced instead of paying the
// full per-request decision cost (Submit, SubmitTrace and SubmitMulti
// all route through the same batched path).
type Engine struct {
	e      *engine.Engine
	caches []*Cache
}

// NewEngine builds a fleet serving trees[i] on shard i, each with a
// fresh TC instance configured by o. It panics on invalid options,
// like New.
//
// Observer caveat: o.Observer, when non-nil, is shared by every shard
// and invoked from all shard worker goroutines at once, so it must be
// safe for concurrent use. A non-thread-safe observer (e.g. the
// analysis recorder) belongs on a single Cache, not on an Engine.
func NewEngine(trees []*Tree, o Options, eo EngineOptions) *Engine {
	caches := make([]*Cache, len(trees))
	var monitors []*metrics.RatioMonitor
	if eo.RatioWindow > 0 {
		monitors = make([]*metrics.RatioMonitor, len(trees))
		for i, t := range trees {
			monitors[i] = metrics.NewRatioMonitor(metrics.RatioConfig{
				Tree:     t,
				Alpha:    o.Alpha,
				Capacity: o.Capacity,
				Window:   eo.RatioWindow,
				Exact:    t.Len() <= opt.MaxExactNodes,
			})
		}
	}
	e := engine.New(engine.Config{
		Shards: len(trees),
		NewShard: func(i int) engine.Algorithm {
			caches[i] = &Cache{tc: core.NewMutable(trees[i], core.MutableConfig{
				Config: core.Config{Alpha: o.Alpha, Capacity: o.Capacity, Observer: o.Observer},
			})}
			return caches[i]
		},
		QueueLen:        eo.QueueLen,
		CheckpointEvery: eo.CheckpointEvery,
		RatioMonitors:   monitors,
	})
	return &Engine{e: e, caches: caches}
}

// Supervised reports whether shard i runs under crash supervision
// (checkpoint + journal replay). Cache is snapshot-capable, so this is
// true unless EngineOptions.CheckpointEvery was negative.
func (f *Engine) Supervised(i int) bool { return f.e.Supervised(i) }

// ApplyTopology enqueues rule announce/withdraw mutations for one
// shard, serialized through the shard's single-writer worker: they
// take effect after every batch submitted before the call and before
// every batch submitted after it. Application errors are counted in
// the shard's TopoErrs stat. SubmitMulti routes mutation events of a
// MultiTrace through the same path in per-tenant order.
func (f *Engine) ApplyTopology(shard int, muts []Mutation) error {
	return f.e.ApplyTopology(shard, muts)
}

// Shards returns the fleet size.
func (f *Engine) Shards() int { return f.e.Shards() }

// Submit enqueues requests for one shard; per-shard order is the
// submission order. It blocks while the shard's queue is full and
// returns an error for an unknown shard or a closed engine.
func (f *Engine) Submit(shard int, reqs ...Request) error {
	return f.e.Submit(shard, trace.Trace(reqs))
}

// SubmitTrace enqueues a whole trace as one batch for one shard,
// served via the shard Cache's batched (run-coalescing) path. The
// trace is retained until served; do not mutate it before Drain.
func (f *Engine) SubmitTrace(shard int, tr Trace) error {
	return f.e.Submit(shard, tr)
}

// TrySubmit enqueues a batch without blocking: if the shard's queue is
// full it returns ErrEngineOverloaded immediately — the bounded-
// backpressure submit for callers that must not stall (drop, shed or
// retry on their own schedule).
func (f *Engine) TrySubmit(shard int, reqs ...Request) error {
	return f.e.TrySubmit(shard, trace.Trace(reqs))
}

// SubmitCtx enqueues a batch like Submit but gives up when ctx is
// cancelled or its deadline passes, returning the context's error.
func (f *Engine) SubmitCtx(ctx context.Context, shard int, tr Trace) error {
	return f.e.SubmitCtx(ctx, shard, tr)
}

// SubmitMulti routes a multi-tenant trace across the fleet (tenant i →
// shard i) in chunks of up to batchLen requests (default 1024).
func (f *Engine) SubmitMulti(mt MultiTrace, batchLen int) error {
	return f.e.SubmitMulti(mt, batchLen)
}

// Drain blocks until everything submitted before the call is served.
func (f *Engine) Drain() { f.e.Drain() }

// Stats snapshots the fleet counters; exact after Drain.
func (f *Engine) Stats() EngineStats { return f.e.Stats() }

// Histogram returns a copy of shard i's request-latency histogram as
// of its last completed batch (zero-valued before the first batch).
func (f *Engine) Histogram(i int) LatencyHistogram { return f.e.Histogram(i) }

// RatioMonitor returns shard i's competitive-ratio monitor, or nil
// when EngineOptions.RatioWindow was 0.
func (f *Engine) RatioMonitor(i int) *RatioMonitor { return f.e.RatioMonitor(i) }

// MetricsHandler returns the Prometheus text-format /metrics endpoint:
// per-shard latency histograms with p50/p99/p999 quantile series, cost
// and throughput counters, queue-depth/topology/restart gauges, and
// the live competitive-ratio gauges when monitors are attached. Safe
// for concurrent use, including against Submit/ApplyTopology/Close.
func (f *Engine) MetricsHandler() http.Handler { return f.e.MetricsHandler() }

// MetricsMux returns a ServeMux serving /metrics and /healthz (200
// while open, 503 after Close), ready for a serving daemon to mount.
func (f *Engine) MetricsMux() *http.ServeMux { return f.e.MetricsMux() }

// Close serves all queued batches and stops the workers. It must not
// race with Submit or Drain.
func (f *Engine) Close() { f.e.Close() }

// Shard returns shard i's Cache for inspection. The cache is owned by
// the shard's worker: only touch it while the engine is quiescent
// (after Drain with no in-flight Submit, or after Close).
func (f *Engine) Shard(i int) *Cache { return f.caches[i] }

// ValidateMultiTrace checks a multi-tenant trace against the fleet's
// trees ([]*Tree and []*tree.Tree are identical via the alias).
func ValidateMultiTrace(mt MultiTrace, trees []*Tree) error {
	return mt.Validate(trees)
}
