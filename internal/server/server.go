// Package server implements treecached, the crash-tolerant serving
// daemon around internal/engine: the paper's online tree-caching
// algorithm behind a compact length-prefixed binary protocol
// (internal/wire) over TCP, plus an HTTP admin plane (/metrics,
// /healthz, /readyz).
//
// Robustness model, end to end:
//
//   - Wire-level backpressure: a full shard queue never blocks a
//     client silently or drops its connection. With a request deadline
//     the submit waits at most that budget (SubmitCtx); without one it
//     is non-blocking (TrySubmit). Either way the shed request is
//     answered with an explicit TRetry carrying a retry-after hint.
//   - Per-tenant quotas: a token bucket per tenant (QuotaConfig) sheds
//     load before it reaches the dispatcher, so one hot tenant's
//     overrun turns into its own TRetry stream instead of fleet-wide
//     queueing. Quota consumed by a batch that backpressure then shed
//     is refunded.
//   - Deadlines propagate: clients send their remaining budget in the
//     frame (relative nanoseconds, no clock sync), the daemon turns it
//     into a context for SubmitCtx.
//   - Idempotent retries: each tenant's batches carry a gapless
//     sequence number; the daemon acknowledges duplicates of already-
//     applied batches without re-serving them, which makes client
//     retransmission after a lost ack — or a daemon restart — safe.
//   - Durable acks (WALDir set): every admitted frame is appended to
//     the tenant's write-ahead log and the Ack is withheld until a
//     group-commit fsync covers the record, so an acknowledged batch
//     survives kill -9, OOM-kill or power loss. Recovery restores the
//     last checkpoint and replays the WAL tail through the sequence
//     table: duplicates are dropped, costs are committed exactly once,
//     and a torn tail record truncates the log instead of failing
//     startup. Checkpoints supersede the log prefix and truncate it,
//     bounding recovery time. Without WALDir the ack remains an
//     in-memory promise and only checkpoints survive a hard crash.
//   - Malformed or stalled clients cannot wedge a handler: every
//     connection read and write carries a deadline, and frames beyond
//     the payload limit are rejected before allocation.
//   - Graceful drain: Shutdown stops accepting, closes client
//     connections, drains every shard, checkpoints all shards plus the
//     sequence table to the state directory at one consistency point,
//     then closes the engine. New restores from that directory, so a
//     SIGTERM-restart cycle loses nothing.
//
// Tenants map 1:1 onto engine shards (tenant i is served by shard i's
// instance), the same convention as engine.SubmitMulti.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/tree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Algo is the algorithm surface a shard of the daemon runs: the
// engine's core interface plus batched serving, topology mutation and
// checkpointing. snapshot.Checkpointed over a core.MutableTC satisfies
// it, as does faultinject.Algo wrapping one (the chaos e2e suite).
type Algo interface {
	engine.Algorithm
	engine.BatchServer
	engine.TopologyServer
	engine.Checkpointer
}

// Config parameterises a Server.
type Config struct {
	// Addr is the TCP listen address for the wire protocol, e.g.
	// "127.0.0.1:7600" (":0" picks a free port; see Addr()).
	Addr string
	// AdminAddr is the HTTP admin plane address serving /metrics,
	// /healthz and /readyz; empty disables the admin plane. The admin
	// plane comes up before recovery starts, answering /readyz with
	// 503 until checkpoint restore and WAL replay complete.
	AdminAddr string
	// StateDir is the checkpoint directory. When set, Shutdown (and
	// the TSnapshot frame) persist every shard snapshot plus the
	// sequence table there as one atomic file, and Start restores from
	// it. Empty disables checkpointing.
	StateDir string
	// WALDir enables the durable write-ahead log: one log per shard,
	// every admitted frame appended and fsynced (group commit) before
	// its ack. Usually the same directory as StateDir. Empty disables
	// the WAL — acks then promise only in-memory application.
	WALDir string
	// FsyncInterval is the WAL group-commit window: the first frame
	// after an idle period waits this long so one fsync covers every
	// frame admitted in the window. Zero syncs immediately (still
	// coalescing frames that race one fsync's duration). Larger
	// windows trade ack latency for fewer fsyncs.
	FsyncInterval time.Duration
	// CheckpointInterval, when positive with a StateDir, checkpoints
	// periodically in the background, truncating the WALs and bounding
	// both log growth and recovery replay time.
	CheckpointInterval time.Duration
	// Trees are the per-tenant rule trees; tenant i is served by a
	// fresh (or restored) dynamic TC instance over Trees[i].
	Trees []*tree.Tree
	// Alpha and Capacity configure every shard's algorithm.
	Alpha    int64
	Capacity int
	// QueueLen and CheckpointEvery tune the wrapped engine; see
	// engine.Config.
	QueueLen        int
	CheckpointEvery int
	// Quota is the per-tenant admission quota; zero Rate disables.
	Quota QuotaConfig
	// ReadTimeout bounds how long a connection may sit between frames
	// (and mid-frame) before the daemon hangs up: a stalled or
	// byte-dribbling client costs one connection, not a worker.
	// Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply write. Default 10s.
	WriteTimeout time.Duration
	// MaxFrame caps a frame's payload size in bytes (default
	// wire.DefaultMaxPayload); larger length prefixes are rejected
	// before any allocation and the connection is closed.
	MaxFrame int
	// Wrap, when non-nil, wraps each shard's algorithm before the
	// engine sees it — the fault-injection hook the chaos e2e suite
	// uses. The wrapper must preserve Algo semantics.
	Wrap func(shard int, algo Algo) Algo
}

// tenantState serializes one tenant's admission path: the sequence
// check, quota, WAL append and submit happen under mu, so a tenant's
// batches enter the shard queue — and its WAL — in sequence order even
// when several connections carry the same tenant.
type tenantState struct {
	mu      sync.Mutex
	lastSeq uint64
}

// WAL record kinds: the first byte of every record, ahead of the raw
// wire frame payload, so replay reuses the wire codecs.
const (
	walRecServe = 1
	walRecTopo  = 2
)

// Server is the treecached daemon. Build with New, start with Start
// (which performs recovery), stop with Shutdown.
type Server struct {
	cfg   Config
	eng   atomic.Pointer[engine.Engine]
	algos []Algo
	// base is each shard's ledger and round count as of the end of
	// recovery (checkpoint restore plus WAL replay; zero on fresh
	// shards): the engine's published per-batch stats only cover work
	// since boot, so stats replies merge the two into restart-spanning
	// cumulative totals.
	base       []cache.Ledger
	baseRounds []int64
	tenants    []*tenantState
	quo        *quotas

	// wals is nil without a WALDir; otherwise one log per shard.
	// replayed counts the records recovery applied per shard.
	wals     []*wal.Log
	replayed []int64
	// ckpts counts durably committed checkpoints (atomic).
	ckpts atomic.Int64

	ln      net.Listener
	admin   *http.Server
	adminLn net.Listener

	// snapMu orders the world for checkpoints: every admission holds
	// the read side end to end (sequence check, WAL append, submit,
	// fsync wait), a checkpoint takes the write side and then drains,
	// so shard instances are quiescent and the WAL has no in-flight
	// appends when it is truncated. Lock order: snapMu before
	// tenantState.mu, always.
	snapMu sync.RWMutex

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	ready    atomic.Bool
	draining atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup
	ckptStop chan struct{}
	ckptDone chan struct{}
	shutOnce sync.Once
	shutErr  error
	killOnce sync.Once
}

// Retry hints, nanoseconds: how long a client should back off when
// shed for a reason other than quota (which computes the exact token
// wait).
const (
	overloadRetryNs = int64(5 * time.Millisecond)
	drainRetryNs    = int64(50 * time.Millisecond)
)

// New validates the configuration and builds the daemon shell. All
// recovery work (checkpoint restore, WAL replay, engine construction)
// happens in Start, so a crashed daemon's operator sees recovery time
// attributed to startup, with the admin plane already answering.
func New(cfg Config) (*Server, error) {
	if len(cfg.Trees) == 0 {
		return nil, errors.New("server: no trees configured")
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxPayload
	}
	return &Server{
		cfg:        cfg,
		algos:      make([]Algo, len(cfg.Trees)),
		base:       make([]cache.Ledger, len(cfg.Trees)),
		baseRounds: make([]int64, len(cfg.Trees)),
		tenants:    make([]*tenantState, len(cfg.Trees)),
		replayed:   make([]int64, len(cfg.Trees)),
		quo:        newQuotas(cfg.Quota, len(cfg.Trees)),
		conns:      make(map[net.Conn]struct{}),
	}, nil
}

// engine returns the wrapped engine, or nil before recovery completes.
func (s *Server) engine() *engine.Engine { return s.eng.Load() }

// Start brings the daemon up: admin plane first (so /readyz reports
// 503 while recovering), then checkpoint restore and WAL replay, then
// the wire listener; readiness flips to 200 only once recovery is
// complete and the daemon is accepting.
func (s *Server) Start() error {
	if s.cfg.AdminAddr != "" {
		adminLn, err := net.Listen("tcp", s.cfg.AdminAddr)
		if err != nil {
			return err
		}
		s.adminLn = adminLn
		s.admin = &http.Server{Handler: s.adminMux()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// ErrServerClosed is the normal Shutdown path.
			_ = s.admin.Serve(adminLn)
		}()
	}
	if err := s.restore(); err != nil {
		if s.admin != nil {
			s.admin.Close()
		}
		return err
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		if s.admin != nil {
			s.admin.Close()
		}
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.StateDir != "" && s.cfg.CheckpointInterval > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	s.ready.Store(true)
	return nil
}

// restore rebuilds every shard from the last durable state: the
// checkpoint file (shard snapshots + sequence table at one consistency
// point), then each shard's WAL tail replayed through the sequence
// table — records at or below the checkpointed sequence are dropped as
// duplicates, the rest applied exactly once, in order. The replay runs
// on the raw instances before the engine exists: engine workers
// capture a supervision snapshot at construction, which must already
// include the replayed state.
func (s *Server) restore() error {
	shards := len(s.cfg.Trees)
	blobs := make([][]byte, shards)
	seqs := make([]uint64, shards)
	if s.cfg.StateDir != "" {
		if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
			return fmt.Errorf("server: state dir: %w", err)
		}
		var err error
		if blobs, seqs, _, err = loadCheckpoint(s.cfg.StateDir, shards, shards); err != nil {
			return fmt.Errorf("server: state dir: %w", err)
		}
	}
	if s.cfg.WALDir != "" {
		if err := os.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
			return fmt.Errorf("server: wal dir: %w", err)
		}
		s.wals = make([]*wal.Log, shards)
	}
	for i, t := range s.cfg.Trees {
		var mtc *core.MutableTC
		if blobs[i] != nil {
			var err error
			if mtc, err = snapshot.Restore(blobs[i]); err != nil {
				return fmt.Errorf("server: shard %d: restore: %w", i, err)
			}
		} else {
			mtc = core.NewMutable(t, core.MutableConfig{
				Config: core.Config{Alpha: s.cfg.Alpha, Capacity: s.cfg.Capacity},
			})
		}
		lastSeq := seqs[i]
		if s.wals != nil {
			l, recs, err := wal.Open(shardWALPath(s.cfg.WALDir, i), wal.Options{
				SyncInterval: s.cfg.FsyncInterval,
				MaxRecord:    s.cfg.MaxFrame + 1,
			})
			if err != nil {
				return fmt.Errorf("server: shard %d: wal: %w", i, err)
			}
			s.wals[i] = l
			applied, newLast, err := replayWAL(mtc, i, recs, lastSeq)
			if err != nil {
				return fmt.Errorf("server: shard %d: wal replay: %w", i, err)
			}
			s.replayed[i] = applied
			lastSeq = newLast
		}
		// The recovery frontier — checkpoint plus replayed tail — is
		// the stats base; the engine counts from zero on top of it.
		s.base[i] = mtc.Ledger()
		s.baseRounds[i] = mtc.Round()
		var algo Algo = snapshot.Checkpointed{MutableTC: mtc}
		if s.cfg.Wrap != nil {
			algo = s.cfg.Wrap(i, algo)
		}
		s.algos[i] = algo
		s.tenants[i] = &tenantState{lastSeq: lastSeq}
	}
	eng := engine.New(engine.Config{
		Shards:          shards,
		NewShard:        func(i int) engine.Algorithm { return s.algos[i] },
		QueueLen:        s.cfg.QueueLen,
		CheckpointEvery: s.cfg.CheckpointEvery,
	})
	s.eng.Store(eng)
	return nil
}

// replayWAL applies one shard's recovered records on top of its
// restored state. Records at or below lastSeq were already covered by
// the checkpoint and are skipped; the remainder must continue the
// sequence gaplessly (the WAL is written in admission order, and
// recovery only ever truncates its tail). Topology messages go through
// engine.ApplyMutations, the rule the live engine applied them with.
func replayWAL(mtc *core.MutableTC, tenant int, recs [][]byte, lastSeq uint64) (applied int64, newLast uint64, err error) {
	for n, rec := range recs {
		if len(rec) < 1 {
			return applied, lastSeq, fmt.Errorf("record %d: empty", n)
		}
		kind, payload := rec[0], rec[1:]
		var seq uint64
		var serve wire.Serve
		var topo wire.Topo
		switch kind {
		case walRecServe:
			if serve, err = wire.DecodeServe(payload); err != nil {
				return applied, lastSeq, fmt.Errorf("record %d: %w", n, err)
			}
			seq = serve.Seq
			if serve.Tenant != tenant {
				return applied, lastSeq, fmt.Errorf("record %d: tenant %d in shard %d's log", n, serve.Tenant, tenant)
			}
		case walRecTopo:
			if topo, err = wire.DecodeTopo(payload); err != nil {
				return applied, lastSeq, fmt.Errorf("record %d: %w", n, err)
			}
			seq = topo.Seq
			if topo.Tenant != tenant {
				return applied, lastSeq, fmt.Errorf("record %d: tenant %d in shard %d's log", n, topo.Tenant, tenant)
			}
		default:
			return applied, lastSeq, fmt.Errorf("record %d: unknown kind %d", n, kind)
		}
		if seq <= lastSeq {
			continue // superseded by the checkpoint
		}
		if seq != lastSeq+1 {
			return applied, lastSeq, fmt.Errorf("record %d: sequence gap: got %d, expected %d", n, seq, lastSeq+1)
		}
		switch kind {
		case walRecServe:
			mtc.ServeBatch(serve.Batch)
		case walRecTopo:
			engine.ApplyMutations(mtc, topo.Muts)
		}
		lastSeq = seq
		applied++
	}
	return applied, lastSeq, nil
}

// Addr returns the wire listener's address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// AdminAddr returns the admin listener's address, or "" when disabled.
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Engine exposes the wrapped engine (metrics handlers, stats). Nil
// until Start has completed recovery.
func (s *Server) Engine() *engine.Engine { return s.engine() }

// Algorithm returns shard i's instance for inspection. Only touch it
// while the daemon is quiescent (after Shutdown).
func (s *Server) Algorithm(i int) Algo { return s.algos[i] }

// Replayed returns how many WAL records recovery applied to shard i
// (beyond the checkpoint) during Start.
func (s *Server) Replayed(i int) int64 { return s.replayed[i] }

// adminMux is the server-owned admin plane. It differs from the
// engine's MetricsMux in two ways: it exists before the engine does
// (recovery runs with the admin plane already up, /readyz 503), and
// /metrics appends the daemon's durability families after the
// engine's.
func (s *Server) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		eng := s.engine()
		if eng == nil {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		eng.MetricsHandler().ServeHTTP(w, r)
		s.writeWALMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness stays green while recovering and through drain, so
		// an orchestrator does not kill a daemon that is replaying its
		// WAL or flushing its queues; it goes red only once the engine
		// is closed.
		if s.closed.Load() {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Shutdown is the graceful drain: withdraw readiness, stop accepting,
// close client connections, drain every shard, checkpoint all state,
// close the WALs and the engine. Idempotent; later calls return the
// first result. The context bounds only the admin server's shutdown —
// drain itself must finish, or restart would lose acknowledged work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		s.ready.Store(false)
		if s.ckptStop != nil {
			close(s.ckptStop)
			<-s.ckptDone
		}
		if s.ln != nil {
			s.ln.Close()
		}
		// Closing the connections interrupts blocked reads; handlers
		// mid-submit finish their bounded waits first (wg below).
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		if s.admin != nil {
			s.shutErr = s.admin.Shutdown(ctx)
		}
		s.wg.Wait()
		if err := s.checkpoint(); err != nil && s.shutErr == nil {
			s.shutErr = err
		}
		for _, l := range s.wals {
			if err := l.Close(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
		}
		if eng := s.engine(); eng != nil {
			eng.Close()
		}
		s.closed.Store(true)
	})
	return s.shutErr
}

// Kill crashes the daemon from inside the process: listeners and
// connections close, in-flight handlers unwind, the WALs drop without
// their final fsync, and nothing is checkpointed. It is the in-process
// analogue of kill -9 for crash-recovery tests — state on disk is
// exactly what the durability machinery made of it, no more.
func (s *Server) Kill() {
	s.killOnce.Do(func() {
		s.draining.Store(true)
		s.ready.Store(false)
		if s.ckptStop != nil {
			close(s.ckptStop)
			<-s.ckptDone
		}
		if s.ln != nil {
			s.ln.Close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		if s.admin != nil {
			s.admin.Close()
		}
		// Kill the WALs first so handlers blocked in Wait unwind with
		// an error instead of a durability promise.
		for _, l := range s.wals {
			l.Kill()
		}
		s.wg.Wait()
		if eng := s.engine(); eng != nil {
			eng.Close()
		}
		s.closed.Store(true)
	})
}

// checkpointLoop checkpoints periodically, truncating the WALs each
// time so recovery replay stays bounded.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			// Best-effort: a failed background checkpoint leaves the
			// previous one and the full WAL, which is still correct —
			// recovery just replays more.
			_ = s.checkpoint()
		}
	}
}

// checkpoint drains the engine at a submission-quiescent point and
// persists every shard snapshot plus the sequence table as ONE
// durably-committed file, then truncates the WALs the checkpoint
// supersedes. No-op without a state directory.
func (s *Server) checkpoint() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	// The write lock excludes every admission end to end (including
	// WAL appends and fsync waits), so after Drain the shard queues
	// are empty and stay empty: the instances are quiescent and safe
	// to Snapshot, and the WALs have no in-flight appends.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.engine().Drain()
	blobs := make([][]byte, len(s.algos))
	for i, algo := range s.algos {
		blob, err := algo.Snapshot()
		if err != nil {
			return fmt.Errorf("server: shard %d: snapshot: %w", i, err)
		}
		blobs[i] = blob
	}
	seqs := make([]uint64, len(s.tenants))
	for i, t := range s.tenants {
		t.mu.Lock()
		seqs[i] = t.lastSeq
		t.mu.Unlock()
	}
	if err := writeFileDurable(
		filepath.Join(s.cfg.StateDir, ckptFile), encodeCheckpoint(blobs, seqs)); err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	// The checkpoint is durably committed: every WAL record is now
	// superseded, so the logs truncate. A crash between the rename and
	// here replays the full old log against the new sequence table —
	// every record a duplicate, every duplicate dropped.
	for i, l := range s.wals {
		if err := l.Reset(); err != nil {
			return fmt.Errorf("server: shard %d: wal truncate: %w", i, err)
		}
	}
	s.ckpts.Add(1)
	return nil
}

// acceptLoop accepts wire connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn serves one client connection: a loop of read frame →
// dispatch → write reply, every step under a deadline.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		f, err := wire.ReadFrame(conn, s.cfg.MaxFrame)
		if err != nil {
			if err != io.EOF {
				// Framing is broken (garbage, oversize, timeout): tell
				// the client best-effort, then hang up — the stream
				// cannot be re-synchronized.
				s.writeReply(conn, wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode())
			}
			return
		}
		typ, payload := s.dispatch(f)
		if !s.writeReply(conn, typ, payload) {
			return
		}
	}
}

// writeReply writes one reply frame under the write deadline.
func (s *Server) writeReply(conn net.Conn, t wire.Type, payload []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return wire.WriteFrame(conn, t, payload) == nil
}

// dispatch routes one decoded frame to its handler and returns the
// reply. Payload decode errors are per-request failures (the framing
// is still aligned), so the connection survives them.
func (s *Server) dispatch(f wire.Frame) (wire.Type, []byte) {
	switch f.Type {
	case wire.TServe:
		m, err := wire.DecodeServe(f.Payload)
		if err != nil {
			return wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode()
		}
		return s.handleServe(m, f.Payload)
	case wire.TTopo:
		m, err := wire.DecodeTopo(f.Payload)
		if err != nil {
			return wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode()
		}
		return s.handleTopo(m, f.Payload)
	case wire.TStats:
		m, err := wire.DecodeStatsReq(f.Payload)
		if err != nil {
			return wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode()
		}
		return s.handleStats(m)
	case wire.TSnapshot:
		if err := s.handleSnapshot(); err != nil {
			return wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode()
		}
		return wire.TAck, wire.Ack{}.Encode()
	default:
		return wire.TError, wire.ErrMsg{Msg: fmt.Sprintf("server: unexpected frame type %d", f.Type)}.Encode()
	}
}

// admit runs the shared per-tenant admission path: sequence
// deduplication, quota, enqueue via submit (which must return nil, an
// overload signal, or a terminal error), then — with a WAL — durable
// logging of the frame before the ack. n is the request count charged
// against the quota; kind and payload describe the WAL record (the raw
// wire payload, so replay reuses the wire codecs).
//
// The ack discipline around the WAL:
//
//   - The record is appended only after the engine accepted the batch,
//     so every logged record corresponds to an applied (or in-queue)
//     batch; shed batches leave no record.
//   - The ack waits for a group-commit fsync covering the record. A
//     crash before that fsync may lose the batch — but its client
//     never saw an ack, and will retransmit to the restarted daemon,
//     whose replayed sequence table treats the retransmission as the
//     first delivery. A crash after it replays the record. Either way:
//     exactly once, and no ack for a lost batch.
//   - If the fsync fails the log is poisoned: the batch was applied in
//     memory, so lastSeq advances (a retransmission must not double-
//     apply), but the client gets an error, not an ack — no durability
//     promise is made. All later admissions fail fast on the poisoned
//     log until an operator restarts the daemon, which recovers from
//     what actually reached the disk.
func (s *Server) admit(tenant int, seq uint64, n int, kind byte, payload []byte, submit func() error) (wire.Type, []byte) {
	if tenant < 0 || tenant >= len(s.tenants) {
		return wire.TError, wire.ErrMsg{Msg: fmt.Sprintf("server: tenant %d out of range [0,%d)", tenant, len(s.tenants))}.Encode()
	}
	if seq == 0 {
		return wire.TError, wire.ErrMsg{Msg: "server: batch sequence numbers start at 1"}.Encode()
	}
	// Admission holds the checkpoint read lock end to end: the
	// sequence check, WAL append, submit and fsync wait all happen on
	// one side of the checkpoint's consistency point. Lock order is
	// snapMu then t.mu — the same order checkpoint takes them.
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	t := s.tenants[tenant]
	t.mu.Lock()
	defer t.mu.Unlock()
	var l *wal.Log
	if s.wals != nil {
		l = s.wals[tenant]
		if err := l.Err(); err != nil {
			// Poisoned: no durability promises of any kind, duplicate
			// acks included.
			return wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode()
		}
	}
	if seq <= t.lastSeq {
		// Idempotent retransmission of an applied batch: acknowledge
		// without re-serving.
		return wire.TAck, wire.Ack{Seq: seq, Dup: true}.Encode()
	}
	if seq != t.lastSeq+1 {
		return wire.TError, wire.ErrMsg{Msg: fmt.Sprintf("server: tenant %d sequence gap: got %d, expected %d", tenant, seq, t.lastSeq+1)}.Encode()
	}
	if s.draining.Load() {
		return wire.TRetry, wire.Retry{AfterNs: drainRetryNs}.Encode()
	}
	if ok, wait := s.quo.take(tenant, n); !ok {
		return wire.TRetry, wire.Retry{AfterNs: int64(wait)}.Encode()
	}
	err := submit()
	switch {
	case err == nil:
	case errors.Is(err, engine.ErrOverloaded),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		// Backpressure shed the batch: explicit retry-after instead of
		// a silent drop, and the quota it consumed flows back.
		s.quo.refund(tenant, n)
		return wire.TRetry, wire.Retry{AfterNs: overloadRetryNs}.Encode()
	case errors.Is(err, engine.ErrClosed):
		s.quo.refund(tenant, n)
		return wire.TRetry, wire.Retry{AfterNs: drainRetryNs}.Encode()
	default:
		s.quo.refund(tenant, n)
		return wire.TError, wire.ErrMsg{Msg: err.Error()}.Encode()
	}
	if l != nil {
		rec := make([]byte, 0, 1+len(payload))
		rec = append(rec, kind)
		rec = append(rec, payload...)
		lsn, err := l.Append(rec)
		if err == nil {
			err = l.Wait(lsn)
		}
		if err != nil {
			// Applied in memory, not durable: advance the sequence (a
			// retransmission must not double-apply) but answer with an
			// error — the ack is a durability promise we cannot make.
			t.lastSeq = seq
			return wire.TError, wire.ErrMsg{Msg: fmt.Sprintf("server: wal: %v", err)}.Encode()
		}
	}
	t.lastSeq = seq
	return wire.TAck, wire.Ack{Seq: seq}.Encode()
}

// handleServe admits one batch: the wire deadline becomes the
// SubmitCtx budget; without one the submit is non-blocking.
func (s *Server) handleServe(m wire.Serve, payload []byte) (wire.Type, []byte) {
	return s.admit(m.Tenant, m.Seq, len(m.Batch), walRecServe, payload, func() error {
		if m.DeadlineNs > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(m.DeadlineNs))
			defer cancel()
			return s.engine().SubmitCtx(ctx, m.Tenant, m.Batch)
		}
		return s.engine().TrySubmit(m.Tenant, m.Batch)
	})
}

// handleTopo admits one topology-mutation control message through the
// same sequence/quota path as serve batches (mutations are ordered
// events in the tenant's stream).
func (s *Server) handleTopo(m wire.Topo, payload []byte) (wire.Type, []byte) {
	return s.admit(m.Tenant, m.Seq, len(m.Muts), walRecTopo, payload, func() error {
		return s.engine().ApplyTopology(m.Tenant, m.Muts)
	})
}

// handleStats answers with the tenant's cumulative ledger: the
// recovery base (work before the last restart, checkpoint plus WAL
// replay) merged with the engine's published counters (work since
// boot). The merge is a componentwise max for the ledger — both cover
// the recovered prefix, published values are cumulative and monotone —
// and a sum for the round count, which the engine counts from zero
// each boot.
func (s *Server) handleStats(m wire.StatsReq) (wire.Type, []byte) {
	if m.Tenant < 0 || m.Tenant >= len(s.tenants) {
		return wire.TError, wire.ErrMsg{Msg: fmt.Sprintf("server: tenant %d out of range [0,%d)", m.Tenant, len(s.tenants))}.Encode()
	}
	ts := s.tenants[m.Tenant]
	ts.mu.Lock()
	lastSeq := ts.lastSeq
	ts.mu.Unlock()
	ss := s.engine().Stats().Shards[m.Tenant]
	led := s.base[m.Tenant]
	reply := wire.StatsReply{
		Tenant:   m.Tenant,
		Rounds:   s.baseRounds[m.Tenant] + ss.Rounds,
		Serve:    max64(led.Serve, ss.Serve),
		Move:     max64(led.Move, ss.Move),
		Fetched:  max64(led.Fetched, ss.Fetched),
		Evicted:  max64(led.Evicted, ss.Evicted),
		Restarts: ss.Restarts,
		Dropped:  ss.Dropped,
		LastSeq:  lastSeq,
	}
	return wire.TStatsReply, reply.Encode()
}

// handleSnapshot checkpoints all shards on demand — the same
// consistency point Shutdown takes, without stopping the daemon.
func (s *Server) handleSnapshot() error {
	if s.cfg.StateDir == "" {
		return errors.New("server: no state directory configured")
	}
	return s.checkpoint()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
