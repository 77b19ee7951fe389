// Package engine implements a goroutine-safe sharded serving engine:
// a fleet of independent tree-caching instances (one per tree/tenant)
// served by per-shard worker goroutines, the way a FIB controller
// drives many switches concurrently.
//
// Concurrency model — single writer per shard:
//
//   - Every shard owns exactly one Algorithm instance and exactly one
//     worker goroutine; only that goroutine ever serves it, so the
//     serve path needs no locks and the zero-allocation property of
//     the underlying algorithm is preserved. Shards are batched
//     algorithms: every dispatched batch is one ServeBatch call
//     (core.TC's run-coalescing path), so correlated bursts are
//     amortized instead of paying the full decision cost per request.
//   - Submit routes a batch to the shard's FIFO channel; batches of
//     one tenant are therefore served in submission order, which makes
//     a concurrent run equivalent to per-tenant sequential replay (the
//     differential tests assert exactly this). TrySubmit is the
//     non-blocking variant (ErrOverloaded instead of backpressure
//     blocking) and SubmitCtx bounds the wait by a context. Every
//     batch and mutation message enters a queue through one function,
//     enqueue, and changes the algorithm through one function, apply,
//     whether it is served, retried under supervision or replayed from
//     the journal. A daemon recovering from its write-ahead log submits
//     the log's records like live traffic, so replay follows the same
//     rule too.
//   - The algorithm owns its counters: requests served (Round), peak
//     occupancy (MaxCacheLen) and the cost ledger. The worker keeps its
//     own timing and supervision counters in the shard's one
//     ShardStats record and, after every message, copies that record,
//     the algorithm's counters refreshed, into the published one under
//     a per-shard mutex, so Stats may be called at any time from any
//     goroutine and never observes a torn (cross-field inconsistent)
//     state, and publishing allocates nothing. New publishes every
//     shard once before its worker starts, so a restored instance
//     reports its restored counters from the start.
//   - Shard workers are plain goroutines; GOMAXPROCS bounds how many
//     serve at once.
//   - SubmitMulti chunk buffers are engine-owned and cycle through a
//     free list (dispatcher → shard queue → worker → free list), so
//     steady-state dispatch performs no per-batch allocation.
//   - Shards that serve the same *tree.Tree share its immutable
//     heavy-path index and segment-tree skeleton (built lazily, once,
//     under the tree's sync.Once): NewShard callbacks constructing one
//     core.TC per shard pay the per-instance lazy state only, not the
//     O(n) index construction.
//
// Fault tolerance — per-shard supervision:
//
// A shard whose algorithm implements Checkpointer runs under a
// supervisor. The worker captures a state snapshot at construction and
// then every CheckpointEvery served messages (DefaultCheckpointEvery
// unless set), and journals every message applied since the last good
// checkpoint. When serving panics, the supervisor recovers the panic,
// restores the algorithm from the checkpoint, replays the journal
// (deterministically reproducing the pre-fault state without
// double-counting any statistic — the algorithm's own counters are
// re-derived by the replay, worker counters are committed only once per
// message) and retries the faulting message a bounded number of times
// before dropping it (counted in Dropped). The single-writer property
// is preserved: supervision runs entirely inside the shard's worker
// goroutine. Unsupervised shards keep plain Go semantics — a panic
// propagates and crashes the process — and so does a supervised shard
// without an accepted capture: one whose first capture failed, or one
// whose captures failed for maxFailedCadences cadences in a row, which
// drops its journal and recovery point (counted in JournalDrops) rather
// than journal without bound. Failed captures are retried once per
// cadence; the next accepted one re-arms supervision.
//
// A capture of a core.MutableTC (through snapshot.Checkpointed) costs
// O(entries changed since the shard's previous capture) plus one copy
// and one CRC of the blob. It re-derives every entry — the first
// capture, and any after a phase end, a rebuild, a restore, or with
// more entries changed than patching them beats a sweep — in one
// linear sweep instead; the worker counts those in CkptFull.
//
// Checkpoint hands the fleet's state to a caller that persists it
// (treecached's durable checkpoint). Every blob comes from the one
// capture rule supervision uses — Snapshot, then VerifySnapshot — taken
// by the shard's own worker at a drain point, so a persisted blob is
// never one that supervision would have rejected.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Algorithm is the surface the engine drives: a batched algorithm that
// owns its counters, which the engine publishes as the shard's stats.
// core.TC, core.MutableTC and snapshot.Checkpointed satisfy it without
// this package importing them.
type Algorithm interface {
	// Name identifies the algorithm in stats.
	Name() string
	BatchServer
	// Ledger returns the accumulated costs.
	Ledger() cache.Ledger
	// Round returns the number of requests served since construction.
	// A request the algorithm serves as a free no-op (MutableTC's
	// request to a withdrawn rule) is not a round.
	Round() int64
}

// TopologyServer is optionally implemented by algorithms whose rule
// tree accepts online mutations (core.MutableTC). ApplyTopology
// control messages are serialized through the shard's single-writer
// worker, so mutations take effect between batches, never inside one,
// and need no locking against the serve path.
type TopologyServer interface {
	ApplyTopology(muts []trace.Mutation) error
}

// BatchServer is the batched half of Algorithm: ServeBatch serves a
// whole batch at amortized cost (core.TC's run-coalescing path) with
// semantics identical to serving its requests one by one, so the
// engine's sequential-equivalence guarantees hold. MaxCacheLen returns
// the peak occupancy since construction (occupancy only grows at
// fetches, so a high-water mark equals the per-request peak exactly).
type BatchServer interface {
	ServeBatch(batch trace.Trace) (serveCost, moveCost int64)
	MaxCacheLen() int
}

// Checkpointer is optionally implemented by algorithms whose full
// observable state can be captured and restored (core.MutableTC via
// internal/snapshot's Checkpointed adapter). Implementing it opts the
// shard into supervision — periodic checkpoints, panic recovery with
// journal replay, and bounded retry — and into Engine.Checkpoint.
// Snapshot must return a
// self-contained blob; Restore must rebuild exactly the captured state
// in place and leave the instance untouched on error.
type Checkpointer interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// FullExporter is optionally implemented alongside Checkpointer by
// algorithms whose captures cost only what changed since the previous
// one (core.MutableTC, through snapshot.Checkpointed): FullExports
// counts the state exports that re-derived every entry instead. The
// worker reads it around each capture and counts the full ones in
// CkptFull.
type FullExporter interface {
	FullExports() int64
}

// SnapshotVerifier is optionally implemented alongside Checkpointer.
// When present, every captured blob is integrity-checked before it is
// accepted as the shard's recovery point or handed out by Checkpoint;
// a verification failure keeps the previous good checkpoint in force
// (counted in CkptErrs) and lets the journal keep growing until a
// capture passes, for at most maxFailedCadences cadences.
type SnapshotVerifier interface {
	VerifySnapshot(data []byte) error
}

// Config parameterises an Engine.
type Config struct {
	// Shards is the number of independent instances (tenants); ≥ 1.
	Shards int
	// NewShard builds shard i's algorithm. It is called exactly once
	// per shard inside New; the instance is confined to that shard's
	// worker goroutine afterwards. Must not be nil.
	NewShard func(shard int) Algorithm
	// QueueLen is the per-shard batch queue capacity; Submit blocks
	// while a shard's queue is full (backpressure). 0 selects
	// DefaultQueueLen.
	QueueLen int
	// CheckpointEvery is the supervision cadence for shards whose
	// algorithm implements Checkpointer: a fresh state snapshot is
	// captured every CheckpointEvery served messages (and at every
	// Drain point), bounding the recovery journal to that many messages
	// while captures succeed. 0 selects DefaultCheckpointEvery; a
	// negative value disables supervision even for Checkpointer
	// algorithms.
	CheckpointEvery int
	// RatioMonitors optionally attaches an online competitive-ratio
	// monitor to shard i (nil entries and missing tail entries mean no
	// monitor). After each served batch the shard's worker feeds the
	// monitor the batch and its exact ledger delta; the live ratio is
	// exported by the /metrics handler. Monitors are goroutine-safe, so
	// one monitor may be shared across shards serving the same tree.
	RatioMonitors []*metrics.RatioMonitor
}

// Production defaults: the values a zero Config selects, and so the
// configuration treecached serves with.
const (
	// DefaultQueueLen is the per-shard queue capacity, in messages.
	DefaultQueueLen = 64
	// DefaultCheckpointEvery is the supervision cadence, in messages.
	DefaultCheckpointEvery = 32
)

// ShardStats is one shard's counters, and the worker's only record of
// them. Stats returns a consistent copy taken at the shard's last
// completed message, or at New before the first (published as a whole,
// so fields are never mutually torn). After Drain the copy covers all
// drained work exactly.
// Rounds, the ledger fields and MaxCache are the algorithm's own, so
// they include any state the instance was restored with; the rest are
// the worker's and count every message submitted since New. A daemon
// that replays its write-ahead log into a new engine (treecached)
// therefore reports worker counters — Batches, BusyNs, MaxBatch,
// TopoApplied, TopoErrs, the supervision counters and Latency — that
// include the replayed records, a replayed message dropped again
// included.
type ShardStats struct {
	Shard     int
	Algorithm string
	Rounds    int64 // requests served (Algorithm.Round)
	Serve     int64 // serving cost
	Move      int64 // movement cost
	Fetched   int64 // nodes fetched
	Evicted   int64 // nodes evicted
	MaxCache  int   // peak cache occupancy (BatchServer.MaxCacheLen)
	Batches   int64 // batches served
	BusyNs    int64 // total wall time spent serving batches
	MaxBatch  int64 // slowest single batch, ns
	// TopoApplied counts applied topology mutations; TopoErrs counts
	// mutations the shard's algorithm rejected (first error wins per
	// control message; the rest of that message is dropped).
	TopoApplied int64
	TopoErrs    int64
	// QueueDepth is the shard's queue occupancy sampled at the moment
	// Stats was called (the one field not published by the worker).
	QueueDepth int
	// Supervision counters: Restarts counts recovered panics,
	// Checkpoints accepted state captures, CkptErrs failed or
	// verification-rejected captures, and Dropped whole messages
	// abandoned after exhausting panic retries. CkptNs is the total
	// wall time spent capturing and verifying checkpoints (accepted or
	// not), CkptBytes the size of the last accepted one, and CkptFull
	// the captures (accepted or not) that re-derived every entry, on a
	// FullExporter. JournalDrops counts the times captures failed for
	// maxFailedCadences cadences in a row and the shard dropped its
	// journal and recovery point. On an unsupervised shard only
	// Checkpoint's captures count.
	Restarts     int64
	Checkpoints  int64
	CkptErrs     int64
	Dropped      int64
	CkptNs       int64
	CkptBytes    int64
	CkptFull     int64
	JournalDrops int64
	// Latency is the shard's per-request service-latency histogram:
	// each served batch records its amortized per-request latency
	// (batch wall time / batch size) with weight = batch size, so
	// quantiles are request-weighted without a clock read per request.
	// Held by value, so publishing the record copies it and recording
	// stays allocation-free in the worker.
	Latency metrics.Histogram
}

// Total returns Serve + Move.
func (s ShardStats) Total() int64 { return s.Serve + s.Move }

// add folds o into s as fleet totals: counters (QueueDepth included)
// are summed, MaxCache, MaxBatch and CkptBytes take the larger value (a
// peak or a size does not add across shards), and the latency
// histograms merge.
func (s *ShardStats) add(o *ShardStats) {
	s.Rounds += o.Rounds
	s.Serve += o.Serve
	s.Move += o.Move
	s.Fetched += o.Fetched
	s.Evicted += o.Evicted
	s.MaxCache = max(s.MaxCache, o.MaxCache)
	s.Batches += o.Batches
	s.BusyNs += o.BusyNs
	s.MaxBatch = max(s.MaxBatch, o.MaxBatch)
	s.TopoApplied += o.TopoApplied
	s.TopoErrs += o.TopoErrs
	s.QueueDepth += o.QueueDepth
	s.Restarts += o.Restarts
	s.Checkpoints += o.Checkpoints
	s.CkptErrs += o.CkptErrs
	s.Dropped += o.Dropped
	s.CkptNs += o.CkptNs
	s.CkptBytes = max(s.CkptBytes, o.CkptBytes)
	s.CkptFull += o.CkptFull
	s.JournalDrops += o.JournalDrops
	s.Latency.Merge(&o.Latency)
}

// Stats is the fleet's counters: every shard's record, and the embedded
// fleet totals folded from them by add (Shard and Algorithm are left
// unset there). Latency is the fleet-level request-latency
// distribution.
type Stats struct {
	ShardStats
	Shards []ShardStats
}

// message is one queue entry: a batch of requests, a topology-mutation
// control message, or a drain token. box, when non-nil, marks an
// engine-owned (pooled) batch buffer: the worker recycles it onto the
// engine's free list after serving (after the next checkpoint, on
// supervised shards).
type message struct {
	batch trace.Trace
	box   *trace.Trace
	muts  []trace.Mutation
	flush *flushReq
}

// flushReq is a drain token, shared by every shard it is sent to: the
// channel to acknowledge on, and whether the acknowledgement carries
// the shard's verified state (Checkpoint) or not (Drain).
type flushReq struct {
	acks    chan<- flushAck
	capture bool
}

// flushAck acknowledges a drain token: the shard, plus for a
// Checkpoint token its verified capture or the reason there is none.
type flushAck struct {
	shard int
	blob  []byte
	err   error
}

// supervisor is a shard's recovery state, confined to the worker.
type supervisor struct {
	every int    // checkpoint cadence, messages
	ckpt  []byte // last accepted snapshot (nil: none, so a panic propagates)
	// journal holds every message applied since ckpt, in order; replay
	// after a restore reproduces the pre-fault state deterministically.
	// It stays empty while ckpt is nil: there is nothing to replay onto.
	journal []message
	// since counts the messages applied since the last accepted capture
	// (since New, before the first): a cadence capture is due at every
	// multiple of every.
	since int
}

// maxFailedCadences bounds the journal while captures fail: once this
// many cadences in a row end without an accepted capture, the shard
// drops its journal and recovery point and serves with plain panic
// semantics until a capture is accepted again.
const maxFailedCadences = 4

type shard struct {
	id   int
	name string
	algo Algorithm
	topo TopologyServer // non-nil when algo accepts topology mutations
	ck   Checkpointer   // non-nil when algo captures and restores its state
	// verify is algo's SnapshotVerifier and fullExports its
	// FullExporter, each nil when it has none.
	verify      func([]byte) error
	fullExports func() int64
	sup         *supervisor           // non-nil when the shard runs supervised
	ratio       *metrics.RatioMonitor // non-nil when a ratio monitor is attached
	in          chan message
	done        chan struct{}
	// rec is the shard's counter record, written only by its worker
	// (and by New before the worker starts). publish copies it into
	// pub under mu after every message, so readers always see an
	// internally consistent (never torn) record.
	rec ShardStats
	mu  sync.Mutex
	pub ShardStats
}

// Engine is the sharded serving engine. Create one with New. Submit,
// TrySubmit, SubmitCtx, SubmitMulti, ApplyTopology, Drain, Stats and
// Close are all safe for concurrent use: submissions racing Close
// receive a clean ErrClosed instead of panicking on a closed channel.
type Engine struct {
	shards []*shard
	free   chan *trace.Trace
	// mu guards the lifecycle: submitters hold the read side across
	// their channel send, Close takes the write side before closing the
	// shard channels, so a send can never hit a closed channel.
	mu     sync.RWMutex
	closed bool
}

// ErrClosed is returned by submissions after (or racing) Close.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is returned by TrySubmit when the shard's queue is
// full: the caller decides whether to retry, shed load, or fall back
// to a blocking Submit.
var ErrOverloaded = errors.New("engine: shard queue full")

// New builds the fleet, publishes every shard's stats once, and starts
// one worker goroutine per shard. It panics on invalid configuration
// (programmer input).
func New(cfg Config) *Engine {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("engine: Shards must be >= 1, got %d", cfg.Shards))
	}
	if cfg.NewShard == nil {
		panic("engine: NewShard must not be nil")
	}
	queue := cfg.QueueLen
	if queue <= 0 {
		queue = DefaultQueueLen
	}
	e := &Engine{
		shards: make([]*shard, cfg.Shards),
		// Free list of recycled SubmitMulti batch buffers, sized so
		// every in-flight pooled batch (a full queue, plus one popped
		// by the worker, plus one being built by the dispatcher, per
		// shard) fits without dropping capacity on the floor.
		free: make(chan *trace.Trace, cfg.Shards*(queue+2)),
	}
	for i := range e.shards {
		algo := cfg.NewShard(i)
		s := &shard{
			id:   i,
			name: algo.Name(),
			algo: algo,
			in:   make(chan message, queue),
			done: make(chan struct{}),
			rec:  ShardStats{Shard: i, Algorithm: algo.Name()},
		}
		s.topo, _ = algo.(TopologyServer)
		if i < len(cfg.RatioMonitors) {
			s.ratio = cfg.RatioMonitors[i]
		}
		s.ck, _ = algo.(Checkpointer)
		if v, ok := algo.(SnapshotVerifier); ok && s.ck != nil {
			s.verify = v.VerifySnapshot
		}
		if f, ok := algo.(FullExporter); ok && s.ck != nil {
			s.fullExports = f.FullExports
		}
		if s.ck != nil && cfg.CheckpointEvery >= 0 {
			every := cfg.CheckpointEvery
			if every == 0 {
				every = DefaultCheckpointEvery
			}
			s.sup = &supervisor{every: every}
		}
		e.shards[i] = s
		s.publish()
		go e.worker(s)
	}
	return e
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Supervised reports whether shard i runs under panic supervision.
func (e *Engine) Supervised(i int) bool { return e.shards[i].sup != nil }

// Algorithm returns shard i's instance. The instance is owned by the
// shard's worker: callers may only touch it while the engine is
// quiescent (after Drain with no in-flight Submit, or after Close).
func (e *Engine) Algorithm(i int) Algorithm { return e.shards[i].algo }

// Submit enqueues a batch for one shard and returns once the batch is
// queued (it blocks while the shard's queue is full). The batch is
// retained until served — until the next checkpoint on supervised
// shards, which replay it after a fault — so callers must not mutate
// it before the next Drain. Requests of one shard are served in
// submission order.
func (e *Engine) Submit(shard int, batch trace.Trace) error {
	return e.enqueue(context.Background(), true, shard, message{batch: batch})
}

// SubmitCtx is Submit with a bounded wait: when the shard's queue is
// full it blocks only until ctx is done, then returns ctx.Err()
// without enqueuing.
func (e *Engine) SubmitCtx(ctx context.Context, shard int, batch trace.Trace) error {
	return e.enqueue(ctx, true, shard, message{batch: batch})
}

// TrySubmit is the non-blocking Submit: when the shard's queue is full
// it returns ErrOverloaded immediately instead of exerting
// backpressure on the caller.
func (e *Engine) TrySubmit(shard int, batch trace.Trace) error {
	return e.enqueue(context.Background(), false, shard, message{batch: batch})
}

// enqueue is the one path by which a batch or mutation message enters
// a shard queue: the range check, the closed check under the read
// lock, and the send. With wait it blocks until the send or until ctx
// is done (ctx.Err()); without it, it never blocks (ErrOverloaded on a
// full queue). An empty message is a no-op.
func (e *Engine) enqueue(ctx context.Context, wait bool, shard int, m message) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("engine: shard %d out of range [0,%d)", shard, len(e.shards))
	}
	if len(m.batch) == 0 && len(m.muts) == 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	in := e.shards[shard].in
	if !wait {
		select {
		case in <- m:
			return nil
		default:
			return ErrOverloaded
		}
	}
	select {
	case in <- m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// getBatchBuf takes a recycled batch buffer off the free list, or
// allocates a fresh one when the list is empty.
func (e *Engine) getBatchBuf(capHint int) *trace.Trace {
	select {
	case box := <-e.free:
		return box
	default:
		b := make(trace.Trace, 0, capHint)
		return &b
	}
}

// putBatchBuf returns a pooled buffer to the free list (dropping it if
// the list is full; correctness never depends on reuse).
func (e *Engine) putBatchBuf(box *trace.Trace, batch trace.Trace) {
	*box = batch[:0]
	select {
	case e.free <- box:
	default:
	}
}

// ApplyTopology enqueues a topology-mutation control message for one
// shard: the mutations are applied by the shard's single-writer worker
// after every batch submitted before this call and before every batch
// submitted after it. The slice is retained until applied — until the
// next Drain on supervised shards, whose recovery journal replays it
// after a fault — so, as with Submit, callers must not mutate it
// before the next Drain. Application errors are counted in the shard's
// stats (TopoErrs), not returned here. The shard's algorithm must
// implement TopologyServer.
func (e *Engine) ApplyTopology(shard int, muts []trace.Mutation) error {
	if shard >= 0 && shard < len(e.shards) && e.shards[shard].topo == nil {
		return fmt.Errorf("engine: shard %d algorithm %q does not accept topology mutations", shard, e.shards[shard].name)
	}
	return e.enqueue(context.Background(), true, shard, message{muts: muts})
}

// SubmitMulti routes a multi-tenant trace to the fleet (tenant i →
// shard i), re-batching each tenant's stream into chunks of up to
// batchLen requests (default 1024). Per-tenant order is preserved, so
// the run is equivalent to serving mt.Split(Shards()) sequentially;
// topology mutation events are routed as in-order control messages
// (the tenant's pending chunk is flushed first). Chunk buffers come
// from a per-engine free list and are recycled by the serving workers,
// so steady-state dispatch does not allocate per batch.
func (e *Engine) SubmitMulti(mt trace.MultiTrace, batchLen int) error {
	if batchLen <= 0 {
		batchLen = 1024
	}
	pending := make([]*trace.Trace, len(e.shards))
	release := func() {
		for _, box := range pending {
			if box != nil {
				e.putBatchBuf(box, *box)
			}
		}
	}
	for _, tr := range mt {
		if tr.Tenant < 0 || tr.Tenant >= len(e.shards) {
			release()
			return fmt.Errorf("engine: tenant %d out of range [0,%d)", tr.Tenant, len(e.shards))
		}
		if tr.IsMut {
			// Flush the tenant's open chunk so the mutation lands at
			// its recorded position in the tenant's stream.
			if box := pending[tr.Tenant]; box != nil && len(*box) > 0 {
				pending[tr.Tenant] = nil
				if err := e.enqueue(context.Background(), true, tr.Tenant, message{batch: *box, box: box}); err != nil {
					e.putBatchBuf(box, *box)
					release()
					return err
				}
			}
			if err := e.ApplyTopology(tr.Tenant, []trace.Mutation{tr.Mut}); err != nil {
				release()
				return err
			}
			continue
		}
		box := pending[tr.Tenant]
		if box == nil {
			box = e.getBatchBuf(batchLen)
			pending[tr.Tenant] = box
		}
		*box = append(*box, tr.Req)
		if len(*box) == batchLen {
			pending[tr.Tenant] = nil
			if err := e.enqueue(context.Background(), true, tr.Tenant, message{batch: *box, box: box}); err != nil {
				e.putBatchBuf(box, *box)
				release()
				return err
			}
		}
	}
	for t, box := range pending {
		if box == nil {
			continue
		}
		pending[t] = nil
		if len(*box) == 0 {
			e.putBatchBuf(box, *box)
			continue
		}
		if err := e.enqueue(context.Background(), true, t, message{batch: *box, box: box}); err != nil {
			e.putBatchBuf(box, *box)
			release()
			return err
		}
	}
	return nil
}

// Drain blocks until every batch submitted before the call has been
// served. Concurrent Submits are allowed; they are simply not covered
// by this Drain. Stats read after Drain are exact for the drained
// work. Supervised shards take a checkpoint at the drain point (when
// work arrived since the last one), so drained caller-owned batches
// are released from the recovery journal; when that capture is
// rejected the journal keeps engine-owned copies instead. Either way
// every batch and mutation slice submitted before the call is the
// caller's again once Drain returns. Draining a closed engine is a
// no-op.
func (e *Engine) Drain() { e.flush(false) }

// Checkpoint is Drain plus each shard's state as a blob (blobs[i] is
// shard i's), taken by the shard's worker at the drain point with the
// capture rule supervision uses: Snapshot, then VerifySnapshot when the
// algorithm has it. A supervised shard with nothing journaled since its
// last accepted capture hands that one back, so a checkpoint costs at
// most one capture per shard. A failed or rejected capture on any shard
// fails the whole call. The blobs form one consistency point only if no
// submission races the call. Every shard's algorithm must implement
// Checkpointer; a closed engine returns ErrClosed.
func (e *Engine) Checkpoint() ([][]byte, error) { return e.flush(true) }

// flush sends a drain token (a Checkpoint token with capture set) to
// every shard and collects the acknowledgements.
func (e *Engine) flush(capture bool) ([][]byte, error) {
	acks := make(chan flushAck, len(e.shards))
	req := &flushReq{acks: acks, capture: capture}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	for _, s := range e.shards {
		s.in <- message{flush: req}
	}
	e.mu.RUnlock()
	blobs := make([][]byte, len(e.shards))
	errs := make([]error, len(e.shards))
	for range e.shards {
		a := <-acks
		blobs[a.shard] = a.blob
		if a.err != nil {
			errs[a.shard] = fmt.Errorf("engine: shard %d: %w", a.shard, a.err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return blobs, nil
}

// Close serves all queued batches, stops the workers and releases the
// engine. It is idempotent and safe against concurrent submissions,
// which receive ErrClosed once Close has begun (blocked submitters
// finish their enqueue first; their batches are served before the
// workers exit).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.in)
	}
	e.mu.Unlock()
	for _, s := range e.shards {
		<-s.done
	}
}

// Stats snapshots the fleet counters. Safe to call at any time; values
// are exact as of each shard's last completed message (queue depths
// are sampled at the moment of the call).
func (e *Engine) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(e.shards))}
	for i, s := range e.shards {
		ss := &st.Shards[i]
		*ss = s.published()
		ss.QueueDepth = len(s.in)
		st.add(ss)
	}
	return st
}

// worker is the single goroutine that owns shard s. All algorithm
// state and the shard's counter record are confined to it; only the
// per-message publication escapes.
func (e *Engine) worker(s *shard) {
	defer close(s.done)
	if s.sup != nil {
		// Initial recovery point: a shard that faults before its first
		// periodic checkpoint restores to its constructed state.
		e.checkpoint(s)
	}
	for msg := range s.in {
		if msg.flush != nil {
			msg.flush.acks <- e.consistencyPoint(s, msg.flush.capture)
			continue
		}
		e.serve(s, msg)
		s.publish()
	}
}

// serve applies one batch or topology message, under supervision when
// the shard has it, and commits its counters once it was applied (a
// supervised message can be dropped after exhausting panic retries). A
// batch is timed and feeds the ratio monitor. A pooled batch buffer
// returns to the free list once served, unless the journal keeps it.
func (e *Engine) serve(s *shard, msg message) {
	var ratioBase int64
	if s.ratio != nil {
		ratioBase = s.algo.Ledger().Total()
	}
	start := time.Now()
	var ok, errs int64
	served, kept := true, false
	if s.sup == nil {
		ok, errs = s.apply(msg)
	} else {
		ok, errs, served, kept = e.supervised(s, msg)
	}
	elapsed := time.Since(start).Nanoseconds()
	w := &s.rec
	switch {
	case !served:
	case msg.muts != nil:
		w.TopoApplied += ok
		w.TopoErrs += errs
	default:
		n := int64(len(msg.batch))
		w.Batches++
		w.BusyNs += elapsed
		w.MaxBatch = max(w.MaxBatch, elapsed)
		// Amortized per-request latency, request-weighted: one
		// histogram update per batch, no per-request clock reads.
		w.Latency.RecordN(elapsed/n, n)
		if s.ratio != nil {
			s.ratio.Observe(msg.batch, s.algo.Ledger().Total()-ratioBase)
		}
	}
	if !kept && msg.box != nil {
		e.putBatchBuf(msg.box, msg.batch)
	}
}

// apply is the one rule by which a message changes a shard's algorithm,
// shared by unsupervised serving, supervised attempts and journal
// replay: a batch is one ServeBatch call; a topology message is applied
// one mutation at a time, and the first rejected mutation drops the
// rest of its message. It returns how many mutations applied and how
// many were dropped.
func (s *shard) apply(msg message) (applied, dropped int64) {
	if msg.muts == nil {
		s.algo.ServeBatch(msg.batch)
		return 0, 0
	}
	for i := range msg.muts {
		if err := s.topo.ApplyTopology(msg.muts[i : i+1]); err != nil {
			return applied, int64(len(msg.muts) - i)
		}
		applied++
	}
	return applied, 0
}

// maxRetries bounds how many times the supervisor re-serves a message
// that keeps panicking before dropping it. Transient faults (the chaos
// suite's single-shot injections) recover on the first retry;
// deterministic poison messages are dropped instead of wedging the
// shard in a restore/panic loop.
const maxRetries = 3

// supervised applies one message with panic recovery: on panic the
// algorithm is restored from the last checkpoint, the journal is
// replayed to reproduce the pre-fault state, and the message retried.
// It returns the counter deltas of the attempt that succeeded, for the
// caller to commit once, served false when the message was dropped, and
// kept true when the journal holds the message.
func (e *Engine) supervised(s *shard, msg message) (ok, errs int64, served, kept bool) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		ok, errs, panicked := s.attempt(msg)
		if !panicked {
			return ok, errs, true, e.commit(s, msg)
		}
		s.rec.Restarts++
		s.sup.recover(s)
	}
	s.rec.Dropped++
	return 0, 0, false, false
}

// commit records an applied message with the supervisor and takes the
// cadence capture once every messages have been applied since the last
// accepted one. An accepted capture covers the message, so the journal
// keeps it only when there is no such capture and there is a recovery
// point to replay it onto. A supervisor whose captures failed for
// maxFailedCadences cadences drops its journal and recovery point
// (JournalDrops); it keeps retrying at every cadence.
func (e *Engine) commit(s *shard, msg message) (kept bool) {
	sup := s.sup
	sup.since++
	if sup.since%sup.every == 0 {
		if e.checkpoint(s) == nil {
			return false
		}
		if sup.ckpt != nil && sup.since >= maxFailedCadences*sup.every {
			e.recycleJournal(sup)
			sup.ckpt = nil
			s.rec.JournalDrops++
		}
	}
	if sup.ckpt == nil {
		return false
	}
	sup.journal = append(sup.journal, msg)
	return true
}

// attempt applies one message, converting a panic anywhere below the
// algorithm into a reported recovery instead of a crashed process.
func (s *shard) attempt(msg message) (ok, errs int64, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if s.sup.ckpt == nil {
				// No recovery point: the first capture failed, or the
				// shard dropped its own after captures kept failing.
				// Supervision cannot restore, so keep plain Go
				// semantics.
				panic(r)
			}
			ok, errs, panicked = 0, 0, true
		}
	}()
	ok, errs = s.apply(msg)
	return ok, errs, false
}

// recover restores the algorithm from the last checkpoint and replays
// the journal, reproducing the exact pre-fault state. The algorithm's
// counters are re-derived by the replay itself and worker counters are
// untouched, so recovered work is never double-counted. A failure
// inside recovery (Restore error, or a panic while replaying) is not
// survivable — supervision's own invariants are broken — and
// propagates.
func (sup *supervisor) recover(s *shard) {
	if err := s.ck.Restore(sup.ckpt); err != nil {
		panic(fmt.Sprintf("engine: shard %d: restore from checkpoint failed after panic: %v", s.id, err))
	}
	for _, m := range sup.journal {
		s.apply(m)
	}
}

// capture is the one capture rule: Snapshot, then VerifySnapshot when
// the algorithm has it. An accepted blob counts in Checkpoints, a
// failed or rejected one in CkptErrs, and one that re-derived every
// entry also in CkptFull; capture plus verification is timed with two
// clock reads.
func (s *shard) capture() ([]byte, error) {
	w := &s.rec
	start := time.Now()
	var full int64
	if s.fullExports != nil {
		full = s.fullExports()
	}
	blob, err := s.ck.Snapshot()
	if s.fullExports != nil && s.fullExports() != full {
		w.CkptFull++
	}
	if err == nil && s.verify != nil {
		err = s.verify(blob)
	}
	w.CkptNs += time.Since(start).Nanoseconds()
	if err != nil {
		w.CkptErrs++
		return nil, err
	}
	w.Checkpoints++
	w.CkptBytes = int64(len(blob))
	return blob, nil
}

// checkpoint captures a new recovery point for a supervised shard. An
// accepted blob replaces the shard's checkpoint and releases the
// journal; on failure the previous checkpoint stays in force.
func (e *Engine) checkpoint(s *shard) error {
	blob, err := s.capture()
	if err != nil {
		return err
	}
	sup := s.sup
	sup.ckpt, sup.since = blob, 0
	e.recycleJournal(sup)
	return nil
}

// consistencyPoint answers a drain token once every earlier message of
// the shard is served. A supervised shard with work applied since its
// last accepted capture checkpoints here, which releases the drained
// (possibly caller-owned) batches from the journal; Drain hands that
// memory back to the caller either way, so a rejected capture leaves
// engine-owned copies in the journal instead. A supervised shard
// answers with its last accepted capture, which proves current when
// nothing was applied since; an unsupervised one captures only for a
// Checkpoint token.
func (e *Engine) consistencyPoint(s *shard, capture bool) flushAck {
	ack := flushAck{shard: s.id}
	switch sup := s.sup; {
	case sup != nil:
		if sup.since > 0 || capture && sup.ckpt == nil {
			if ack.err = e.checkpoint(s); ack.err != nil {
				sup.ownJournal()
			}
			s.publish()
		}
		ack.blob = sup.ckpt
	case !capture:
	case s.ck == nil:
		ack.err = fmt.Errorf("algorithm %q does not implement Checkpointer", s.name)
	default:
		ack.blob, ack.err = s.capture()
		s.publish()
	}
	return ack
}

// ownJournal replaces the journal's references to caller-owned memory
// — batches enqueued without a pooled buffer, and topology slices —
// with engine-owned copies. A copied batch gets a buffer box, so it is
// copied once and later recycles onto the free list.
func (sup *supervisor) ownJournal() {
	for i := range sup.journal {
		m := &sup.journal[i]
		if m.muts != nil {
			m.muts = append([]trace.Mutation(nil), m.muts...)
		} else if m.box == nil {
			b := append(trace.Trace(nil), m.batch...)
			m.batch, m.box = b, &b
		}
	}
}

// recycleJournal releases the journal after an accepted capture: the
// messages can no longer be replayed, so their pooled batch buffers
// return to the free list.
func (e *Engine) recycleJournal(sup *supervisor) {
	for _, m := range sup.journal {
		if m.box != nil {
			e.putBatchBuf(m.box, m.batch)
		}
	}
	sup.journal = sup.journal[:0]
}

// published returns a copy of the shard's published record.
func (s *shard) published() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pub
}

// publish refreshes the record's algorithm counters (rounds, ledger and
// peak occupancy are the algorithm's own) and copies the record into the
// published one. Only the shard's worker calls it, and New once before
// starting the worker.
func (s *shard) publish() {
	w := &s.rec
	led := s.algo.Ledger()
	w.Rounds = s.algo.Round()
	w.Serve, w.Move, w.Fetched, w.Evicted = led.Serve, led.Move, led.Fetched, led.Evicted
	w.MaxCache = s.algo.MaxCacheLen()
	s.mu.Lock()
	s.pub = *w
	s.mu.Unlock()
}
