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
//     the daemon's one write-ahead log, shared by every tenant, and
//     the Ack is withheld until a group-commit fsync covers the
//     record, so an acknowledged batch survives kill -9, OOM-kill or
//     power loss; one fsync covers every tenant's frames in flight.
//     Recovery restores the last checkpoint and replays the log tail
//     through the sequence table, routing each record to the tenant it
//     names: duplicates are dropped, costs are committed exactly once,
//     and a torn tail record truncates the log instead of failing
//     startup. Replay submits each record to the engine, so the shard
//     workers apply it by the rule that served it live — supervision,
//     the drop rule for poison messages and Wrap included — and the
//     tenants replay in parallel. Checkpoints supersede the log prefix
//     and truncate it, bounding recovery time. Without WALDir the ack
//     remains an in-memory promise and only checkpoints survive a hard
//     crash.
//   - Malformed or stalled clients cannot wedge a handler: every
//     connection read and write carries a deadline, and frames beyond
//     the payload limit are rejected before allocation.
//   - Graceful drain: Shutdown stops accepting, closes client
//     connections, drains every shard, checkpoints all shards plus the
//     sequence table to the state directory at one consistency point,
//     then closes the engine. New restores from that directory, so a
//     SIGTERM-restart cycle loses nothing. Every durable checkpoint is
//     the engine's verified capture (engine.Checkpoint): a blob that
//     fails verification fails the checkpoint before anything on disk
//     changes.
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

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/tree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Algo is the algorithm surface a shard of the daemon runs: the
// engine's batched Algorithm plus topology mutation and checkpointing.
// snapshot.Checkpointed over a core.MutableTC satisfies it, as does
// faultinject.Algo wrapping one (the chaos e2e suite).
type Algo interface {
	engine.Algorithm
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
	// WALDir enables the durable write-ahead log: one log,
	// treecached.wal, shared by every tenant, with every admitted frame
	// appended and fsynced (group commit) before its ack. Usually the
	// same directory as StateDir. Empty disables the WAL — acks then
	// promise only in-memory application.
	WALDir string
	// FsyncInterval is the WAL group-commit window: the first frame
	// after an idle period waits this long so one fsync covers every
	// frame admitted in the window. Zero syncs immediately (still
	// coalescing frames that race one fsync's duration). Larger
	// windows trade ack latency for fewer fsyncs.
	FsyncInterval time.Duration
	// CheckpointInterval, when positive with a StateDir, checkpoints
	// periodically in the background, truncating the WAL and bounding
	// both log growth and recovery replay time.
	CheckpointInterval time.Duration
	// Trees are the per-tenant rule trees; tenant i is served by a
	// fresh (or restored) dynamic TC instance over Trees[i].
	Trees []*tree.Tree
	// Alpha and Capacity configure every shard's algorithm (see
	// core.Config.Validate). A checkpoint taken with other values is
	// refused at Start.
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
	// Wrap, when non-nil, wraps each shard's algorithm before recovery
	// restores it and the engine sees it — the fault-injection hook the
	// chaos e2e suite uses — so checkpoint restore and WAL replay go
	// through the wrapper too. The wrapper must preserve Algo
	// semantics.
	Wrap func(shard int, algo Algo) Algo
}

// tenantState serializes one tenant's admission path: the sequence
// check, quota, submit and WAL append happen under mu, so a tenant's
// batches enter the shard queue — and the log — in sequence order even
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
	cfg     Config
	eng     atomic.Pointer[engine.Engine]
	tenants []*tenantState
	quo     *quotas

	// wal is nil without a WALDir; otherwise the daemon's one log,
	// shared by every tenant. legacy lists the per-shard logs of the
	// old layout that recovery replayed; the next committed checkpoint
	// supersedes and deletes them. replayed counts the records recovery
	// submitted per tenant.
	wal      *wal.Log
	legacy   []string
	replayed []int64
	// ckpts counts durably committed checkpoints, ckptErrs failed
	// periodic background ones.
	ckpts, ckptErrs atomic.Int64

	ln      net.Listener
	admin   *http.Server
	adminLn net.Listener

	// snapMu orders the world for checkpoints: every admission holds
	// the read side end to end (sequence check, submit, WAL append,
	// fsync wait), a checkpoint takes the write side and then drains,
	// so every shard captures at one consistency point and the WAL has
	// no in-flight appends when it is truncated. Lock order: snapMu
	// before tenantState.mu, always.
	snapMu sync.RWMutex

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	ready    atomic.Bool
	draining atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup
	ckptStop chan struct{}
	ckptDone chan struct{}
	stopOnce sync.Once
	stopErr  error
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
	if err := cfg.algoConfig().Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
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
		cfg:      cfg,
		tenants:  make([]*tenantState, len(cfg.Trees)),
		replayed: make([]int64, len(cfg.Trees)),
		quo:      newQuotas(cfg.Quota, len(cfg.Trees)),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// algoConfig is every shard's algorithm configuration.
func (c *Config) algoConfig() core.Config {
	return core.Config{Alpha: c.Alpha, Capacity: c.Capacity}
}

// engine returns the wrapped engine, or nil before recovery completes.
func (s *Server) engine() *engine.Engine { return s.eng.Load() }

// Start brings the daemon up: admin plane first (so /readyz reports
// 503 while recovering), then checkpoint restore and WAL replay, then
// the wire listener; readiness flips to 200 only once recovery is
// complete and the daemon is accepting. A failed Start releases what
// it built — the admin plane, the engine's shard workers and the log —
// and leaves a stopped Server, on which Shutdown and Kill do nothing.
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
	err := s.restore()
	if err == nil {
		s.ln, err = net.Listen("tcp", s.cfg.Addr)
	}
	if err != nil {
		if s.admin != nil {
			s.admin.Close()
			s.wg.Wait()
		}
		if eng := s.engine(); eng != nil {
			eng.Close()
		}
		if s.wal != nil {
			s.wal.Close()
			s.wal = nil
		}
		// Nothing is left to stop: Shutdown and Kill become no-ops.
		s.stopOnce.Do(func() { s.closed.Store(true) })
		return err
	}
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

// restore rebuilds every shard from the last durable state by the
// rules that built it live. Each shard's checkpoint blob (shard
// snapshots + sequence table at one consistency point) is restored
// through the shard's own Checkpointer.Restore, the call supervision
// makes; a snapshot whose α or capacity differs from the configuration
// is refused. The write-ahead log is then read and, once the engine
// exists, every record beyond the sequence table is submitted to it,
// so replay runs on the shard workers under supervision and Wrap
// exactly as live serving did: a message the live engine dropped is
// dropped again, and tenants replay in parallel. One Drain, only when
// a record was submitted, makes the recovered stats exact before Start
// returns.
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
	algos := make([]Algo, shards)
	for i, t := range s.cfg.Trees {
		algos[i] = snapshot.Checkpointed{MutableTC: core.NewMutable(t, core.MutableConfig{Config: s.cfg.algoConfig()})}
		if s.cfg.Wrap != nil {
			algos[i] = s.cfg.Wrap(i, algos[i])
		}
		if blobs[i] != nil {
			if err := algos[i].Restore(blobs[i]); err != nil {
				return fmt.Errorf("server: shard %d: restore: %w", i, err)
			}
		}
	}
	var recs [][]byte
	if s.cfg.WALDir != "" {
		var err error
		if recs, err = s.openWAL(); err != nil {
			return err
		}
	}
	eng := engine.New(engine.Config{
		Shards:          shards,
		NewShard:        func(i int) engine.Algorithm { return algos[i] },
		QueueLen:        s.cfg.QueueLen,
		CheckpointEvery: s.cfg.CheckpointEvery,
	})
	if err := replayWAL(eng, recs, seqs, s.replayed); err != nil {
		eng.Close()
		return fmt.Errorf("server: wal replay: %w", err)
	}
	for i := range s.tenants {
		s.tenants[i] = &tenantState{lastSeq: seqs[i]}
	}
	s.eng.Store(eng)
	return nil
}

// openWAL opens the daemon's log and returns the records to replay.
// Logs of the per-shard layout (shard-*.wal) come first: their records
// name their tenant too, and they predate everything in the daemon's
// log.
func (s *Server) openWAL() ([][]byte, error) {
	dir := s.cfg.WALDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: wal dir: %w", err)
	}
	legacy, err := filepath.Glob(filepath.Join(dir, legacyWALGlob))
	if err != nil {
		return nil, fmt.Errorf("server: wal: %w", err)
	}
	var recs [][]byte
	for _, path := range legacy {
		r, err := wal.Read(path, s.cfg.MaxFrame+1)
		if err != nil {
			return nil, fmt.Errorf("server: wal: %w", err)
		}
		recs = append(recs, r...)
	}
	l, tail, err := wal.Open(filepath.Join(dir, walFile), wal.Options{
		SyncInterval: s.cfg.FsyncInterval,
		MaxRecord:    s.cfg.MaxFrame + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("server: wal: %w", err)
	}
	s.wal, s.legacy = l, legacy
	return append(recs, tail...), nil
}

// replayWAL submits recovered log records to the engine, routing each
// to the shard of the tenant its wire payload names. Records at or
// below the tenant's lastSeq were already covered by the checkpoint
// and are skipped; the remainder must continue the tenant's sequence
// gaplessly (admission appends a tenant's records in sequence order
// under its lock, and recovery only ever truncates the log's tail).
// lastSeq advances in place; replayed counts the records submitted per
// tenant, whether or not the engine then drops one again. When any
// record was submitted, a successful replay drains the engine before
// it returns, so the recovered stats are exact.
func replayWAL(eng *engine.Engine, recs [][]byte, lastSeq []uint64, replayed []int64) error {
	submitted := false
	for n, rec := range recs {
		if len(rec) < 1 {
			return fmt.Errorf("record %d: empty", n)
		}
		kind, payload := rec[0], rec[1:]
		var tenant int
		var seq uint64
		var serve wire.Serve
		var topo wire.Topo
		var err error
		switch kind {
		case walRecServe:
			if serve, err = wire.DecodeServe(payload); err != nil {
				return fmt.Errorf("record %d: %w", n, err)
			}
			tenant, seq = serve.Tenant, serve.Seq
		case walRecTopo:
			if topo, err = wire.DecodeTopo(payload); err != nil {
				return fmt.Errorf("record %d: %w", n, err)
			}
			tenant, seq = topo.Tenant, topo.Seq
		default:
			return fmt.Errorf("record %d: unknown kind %d", n, kind)
		}
		if tenant < 0 || tenant >= len(lastSeq) {
			return fmt.Errorf("record %d: tenant %d out of range [0,%d)", n, tenant, len(lastSeq))
		}
		if seq <= lastSeq[tenant] {
			continue // superseded by the checkpoint
		}
		if seq != lastSeq[tenant]+1 {
			return fmt.Errorf("record %d: tenant %d sequence gap: got %d, expected %d", n, tenant, seq, lastSeq[tenant]+1)
		}
		if kind == walRecServe {
			err = eng.Submit(tenant, serve.Batch)
		} else {
			err = eng.ApplyTopology(tenant, topo.Muts)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		submitted = true
		lastSeq[tenant] = seq
		replayed[tenant]++
	}
	if submitted {
		eng.Drain()
	}
	return nil
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
func (s *Server) Algorithm(i int) Algo { return s.engine().Algorithm(i).(Algo) }

// Replayed returns how many WAL records recovery submitted to tenant
// i's shard (beyond the checkpoint) during Start, counting one that
// the engine dropped again.
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
// close the WAL and the engine. Shutdown and Kill share one teardown
// that runs once; later calls of either return the first result. The
// context bounds only the admin server's shutdown — drain itself must
// finish, or restart would lose acknowledged work.
func (s *Server) Shutdown(ctx context.Context) error { return s.stop(ctx, true) }

// Kill crashes the daemon from inside the process: listeners and
// connections close, in-flight handlers unwind, the WAL drops without
// its final fsync, and nothing is checkpointed. It is the in-process
// analogue of kill -9 for crash-recovery tests — state on disk is
// exactly what the durability machinery made of it, no more.
func (s *Server) Kill() { s.stop(context.Background(), false) }

// stop is the one teardown behind Shutdown (graceful) and Kill.
func (s *Server) stop(ctx context.Context, graceful bool) error {
	s.stopOnce.Do(func() {
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
			if graceful {
				s.stopErr = s.admin.Shutdown(ctx)
			} else {
				s.admin.Close()
			}
		}
		if !graceful && s.wal != nil {
			// Kill the WAL first so handlers blocked in Wait unwind with
			// an error instead of a durability promise.
			s.wal.Kill()
		}
		s.wg.Wait()
		if graceful {
			if err := s.checkpoint(); err != nil && s.stopErr == nil {
				s.stopErr = err
			}
			if s.wal != nil {
				if err := s.wal.Close(); err != nil && s.stopErr == nil {
					s.stopErr = err
				}
			}
		}
		if eng := s.engine(); eng != nil {
			eng.Close()
		}
		s.closed.Store(true)
	})
	return s.stopErr
}

// checkpointLoop checkpoints periodically, truncating the WAL each
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
			// A failed background checkpoint leaves the previous one
			// and the full WAL, which is still correct — recovery just
			// replays more — so it is counted, not fatal.
			if s.checkpoint() != nil {
				s.ckptErrs.Add(1)
			}
		}
	}
}

// checkpoint persists every shard's verified capture plus the sequence
// table as ONE durably-committed file, then truncates the WAL the
// checkpoint supersedes and deletes the per-shard logs recovery
// replayed. A failed or rejected capture fails the checkpoint before
// anything on disk changes. No-op without a state directory.
func (s *Server) checkpoint() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	// The write lock excludes every admission end to end (including
	// WAL appends and fsync waits), so the engine's Checkpoint drains
	// queues that stay empty — every shard captures at one consistency
	// point — and the WAL has no in-flight appends.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	blobs, err := s.engine().Checkpoint()
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
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
	// superseded, so the log truncates. A crash between the rename and
	// here replays the full old log against the new sequence table —
	// every record a duplicate, every duplicate dropped. The same holds
	// for a deleted per-shard log that reappears after a crash.
	if s.wal != nil {
		if err := s.wal.Reset(); err != nil {
			return fmt.Errorf("server: wal truncate: %w", err)
		}
	}
	s.ckpts.Add(1)
	for len(s.legacy) > 0 {
		if err := os.Remove(s.legacy[0]); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: remove superseded log: %w", err)
		}
		s.legacy = s.legacy[1:]
	}
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
//     promise is made. All later admissions, of every tenant, fail fast
//     on the poisoned log until an operator restarts the daemon, which
//     recovers from what actually reached the disk.
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
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
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
	if s.wal != nil {
		rec := make([]byte, 0, 1+len(payload))
		rec = append(rec, kind)
		rec = append(rec, payload...)
		lsn, err := s.wal.Append(rec)
		if err == nil {
			err = s.wal.Wait(lsn)
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

// handleStats answers with the tenant's shard stats as the engine
// published them. Rounds and the ledger are the algorithm's own
// counters, so they span restarts: a restored instance carries its
// checkpoint and replayed log tail.
func (s *Server) handleStats(m wire.StatsReq) (wire.Type, []byte) {
	if m.Tenant < 0 || m.Tenant >= len(s.tenants) {
		return wire.TError, wire.ErrMsg{Msg: fmt.Sprintf("server: tenant %d out of range [0,%d)", m.Tenant, len(s.tenants))}.Encode()
	}
	ts := s.tenants[m.Tenant]
	ts.mu.Lock()
	lastSeq := ts.lastSeq
	ts.mu.Unlock()
	ss := s.engine().Stats().Shards[m.Tenant]
	reply := wire.StatsReply{
		Tenant:   m.Tenant,
		Rounds:   ss.Rounds,
		Serve:    ss.Serve,
		Move:     ss.Move,
		Fetched:  ss.Fetched,
		Evicted:  ss.Evicted,
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
