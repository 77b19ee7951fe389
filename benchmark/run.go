package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/server"
	"repro/internal/tree"
	"repro/internal/wire"
)

// Counts of repeated measurements inside one run: set-up is short and
// noisy, so it is repeated and reported as a median; recovery on
// fib-durable restarts the killed daemon this many times.
const (
	setupReps    = 9
	recoveryReps = 3
)

// checkpointEvery is treecached's default supervision cadence, in
// messages.
const checkpointEvery = 32

// daemonConfig mirrors cmd/treecached's flag defaults: admin plane on,
// 64-deep shard queues, a supervision checkpoint every 32 messages, no
// quota, 30 s read and 10 s write deadlines, and — with -wal — one
// fsync per 2 ms group-commit window and no periodic checkpoint. Only
// the listen addresses differ (free loopback ports), and fib-durable
// sets the state directory that -wal requires.
func daemonConfig(w *workload, trees []*tree.Tree, dir string, wrap func(int, server.Algo) server.Algo) server.Config {
	cfg := server.Config{
		Addr:            "127.0.0.1:0",
		AdminAddr:       "127.0.0.1:0",
		FsyncInterval:   2 * time.Millisecond,
		Trees:           trees,
		Alpha:           alpha,
		Capacity:        capacity,
		QueueLen:        64,
		CheckpointEvery: checkpointEvery,
		ReadTimeout:     30 * time.Second,
		WriteTimeout:    10 * time.Second,
		Wrap:            wrap,
	}
	if w.wal {
		cfg.StateDir = dir
		cfg.WALDir = dir
	}
	return cfg
}

// boot builds every tenant's rule table from its rule list and starts
// the daemon over the tables' trees: the work setup_s measures.
func boot(w *workload, in []tenantInput, dir string, wrap func(int, server.Algo) server.Algo) (*server.Server, []*tree.Tree, time.Duration, error) {
	t0 := time.Now()
	trees := make([]*tree.Tree, len(in))
	for i := range in {
		tb, err := fib.NewTable(in[i].rules)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tenant %d table: %w", i, err)
		}
		trees[i] = tb.Tree()
	}
	srv, err := server.New(daemonConfig(w, trees, dir, wrap))
	if err != nil {
		return nil, nil, 0, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("daemon start: %w", err)
	}
	return srv, trees, time.Since(t0), nil
}

// runOpts selects one run.
type runOpts struct {
	w       *workload
	seed    int64
	seconds float64
	quick   bool
	// dir holds the daemon's state on fib-durable; the run creates and
	// removes subdirectories of it.
	dir string
}

// tenantRun is one client's record of a run.
type tenantRun struct {
	attempted, acked, failed int64
	requests, timedReqs      int64
	retries                  int64
	err                      error
	lat                      []int64      // send→ack ns of timed serve frames
	frames                   []frameTrace // every frame, traced runs only
}

// runResult is everything one run measured.
type runResult struct {
	w                 *workload
	warm, timed       int // cycles per tenant
	window            time.Duration
	timedReqs         int64
	requests          int64
	attempted, failed int64
	retries           int64
	lat               []int64 // send→ack ns of every tenant's timed serve frames, sorted
	setups            []int64 // ns
	recoveries        []int64 // ns
	replayedReqs      int64
	ledgers           []tenantLedger
	gateErr           error
	layers            layerTable // traced runs only
	tracer            *tracer
	throughputRPS     float64
	setupS, recoveryS float64
	costPerRequest    float64
}

// tenantLedger is the part of a tenant's daemon state the correctness
// gate pins.
type tenantLedger struct {
	LastSeq                               uint64
	Rounds, Serve, Move, Fetched, Evicted int64
}

// run boots the daemon, drives the closed loop and checks the outcome.
// A traced run wraps every shard's algorithm to time calls into it
// and records client-side spans; an untraced run is the production
// configuration untouched.
func run(o runOpts, in []tenantInput, traced bool) (*runResult, error) {
	r := &runResult{w: o.w}
	r.warm, r.timed = o.w.work(o.seconds, o.quick)
	var tc *tracer
	var wrap func(int, server.Algo) server.Algo
	if traced {
		tc = newTracer(o.w, r.warm)
		wrap = tc.wrap
		r.tracer = tc
	}

	reps := setupReps
	if o.quick {
		reps = 2
	}
	var srv *server.Server
	var trees []*tree.Tree
	var dir string
	for k := 0; k < reps; k++ {
		if o.w.wal {
			dir = filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", o.w.name, os.Getpid(), k))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from a collected heap, as in a fresh
		// process, so garbage from the previous one is not charged to it.
		runtime.GC()
		s, t, d, err := boot(o.w, in, dir, wrap)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d.Nanoseconds())
		if k == reps-1 {
			srv, trees = s, t
			break
		}
		if err := s.Shutdown(context.Background()); err != nil {
			return nil, fmt.Errorf("shutdown after set-up: %w", err)
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Kill()
		}
	}()

	runs := make([]tenantRun, tenants)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < tenants; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			drive(o, r, srv.Addr(), &in[i], i, &runs[i], tc, &ready, start)
		}(i)
	}
	ready.Wait()
	eng := srv.Engine()
	eng.Drain()
	if tc != nil {
		tc.begin(eng)
	}
	t0 := time.Now()
	close(start)
	done.Wait()
	eng.Drain()
	r.window = time.Since(t0)
	if tc != nil {
		if err := tc.end(eng, srv.AdminAddr(), o.w.wal); err != nil {
			return nil, err
		}
	}

	for i := range runs {
		t := &runs[i]
		r.attempted += t.attempted
		r.failed += t.failed
		r.retries += t.retries
		r.requests += t.requests
		r.timedReqs += t.timedReqs
		r.lat = append(r.lat, t.lat...)
		if r.gateErr == nil && t.err != nil {
			r.gateErr = t.err
		}
		if tc != nil {
			tc.frames[i] = t.frames
		}
	}
	sort.Slice(r.lat, func(a, b int) bool { return r.lat[a] < r.lat[b] })
	r.throughputRPS = float64(r.timedReqs) / r.window.Seconds()
	r.setupS = quantile(r.setups, 0.5) / 1e9

	got, err := daemonLedgers(srv.Addr())
	if err != nil {
		return nil, err
	}
	r.ledgers = got
	var cost, reqs int64
	for _, l := range got {
		cost += l.Serve + l.Move
		reqs += l.Rounds
	}
	if reqs > 0 {
		r.costPerRequest = float64(cost) / float64(reqs)
	}
	if r.gateErr == nil {
		r.gateErr = gate(o.w, in, trees, runs, got, eng.Stats().TopoErrs)
	}

	stopped = true
	if o.w.wal {
		srv.Kill()
		if err := r.recover(o.w, trees, dir, got); err != nil && r.gateErr == nil {
			r.gateErr = err
		}
		r.recoveryS = quantile(r.recoveries, 0.5) / 1e9
	} else {
		if err := srv.Shutdown(context.Background()); err != nil {
			return nil, fmt.Errorf("shutdown: %w", err)
		}
	}
	if tc != nil {
		r.layers = tc.report(r)
	}
	return r, nil
}

// drive is one tenant's closed loop: each frame is sent only after the
// previous one is acknowledged. Warm-up frames come first; then the
// client waits at the barrier until every tenant is warm and the
// daemon's queues are drained, and the timed frames follow.
func drive(o runOpts, r *runResult, addr string, in *tenantInput, tenant int, tr *tenantRun, tc *tracer, ready *sync.WaitGroup, start <-chan struct{}) {
	c := client.New(client.Config{Addr: addr, Seed: tenantSeed(o.seed, tenant, 3)})
	defer c.Close()
	fpc := o.w.framesPerCycle()
	warmFrames := r.warm * fpc
	total := (r.warm + r.timed) * fpc
	tr.lat = make([]int64, 0, r.timed)
	if tc != nil {
		tr.frames = make([]frameTrace, 0, total)
	}
	arrived := false
	defer func() {
		if !arrived {
			ready.Done()
		}
	}()
	s := newStream(o.w, in)
	for j := 0; j < total; j++ {
		if j == warmFrames {
			arrived = true
			ready.Done()
			<-start
		}
		f := s.nextFrame()
		var ft frameTrace
		if tc != nil {
			ft = tc.wireCost(tenant, uint64(j+1), f)
		}
		t0 := time.Now()
		var err error
		if f.batch != nil {
			err = c.Serve(tenant, f.batch)
		} else {
			err = c.ApplyTopology(tenant, f.muts)
		}
		t1 := time.Now()
		tr.attempted++
		if err != nil {
			tr.failed++
			tr.err = fmt.Errorf("tenant %d frame %d: %w", tenant, j, err)
			break
		}
		tr.acked++
		if f.batch != nil {
			tr.requests += int64(len(f.batch))
			if j >= warmFrames {
				tr.timedReqs += int64(len(f.batch))
				tr.lat = append(tr.lat, t1.Sub(t0).Nanoseconds())
			}
		}
		if tc != nil {
			ft.send, ft.ack = tc.since(t0), tc.since(t1)
			tr.frames = append(tr.frames, ft)
		}
	}
	tr.retries = c.Retries()
}

// daemonLedgers asks the daemon for every tenant's cumulative ledger.
func daemonLedgers(addr string) ([]tenantLedger, error) {
	c := client.New(client.Config{Addr: addr, Seed: 1})
	defer c.Close()
	out := make([]tenantLedger, tenants)
	for i := range out {
		st, err := c.Stats(i)
		if err != nil {
			return nil, fmt.Errorf("stats for tenant %d: %w", i, err)
		}
		out[i] = ledgerOf(st)
	}
	return out, nil
}

func ledgerOf(st wire.StatsReply) tenantLedger {
	return tenantLedger{LastSeq: st.LastSeq, Rounds: st.Rounds, Serve: st.Serve, Move: st.Move, Fetched: st.Fetched, Evicted: st.Evicted}
}

// gate is the correctness check every run ends with: each tenant's
// acknowledged frames, replayed in order on a local core.MutableTC,
// must give exactly the ledger the daemon reports, the daemon's last
// sequence number must count every acknowledged frame, and no topology
// mutation may have been rejected.
func gate(w *workload, in []tenantInput, trees []*tree.Tree, runs []tenantRun, got []tenantLedger, topoErrs int64) error {
	if topoErrs != 0 {
		return fmt.Errorf("gate: daemon rejected %d topology mutations", topoErrs)
	}
	want := make([]tenantLedger, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want[i], errs[i] = replay(w, &in[i], trees[i], int(runs[i].acked))
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("gate: local replay: %w", err)
	}
	return compareLedgers(want, got)
}

// replay serves a tenant's first frames on a fresh local instance,
// applying topology frames one mutation at a time as the engine does.
func replay(w *workload, in *tenantInput, t *tree.Tree, frames int) (tenantLedger, error) {
	m := core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: alpha, Capacity: capacity}})
	s := newStream(w, in)
	for j := 0; j < frames; j++ {
		f := s.nextFrame()
		if f.batch != nil {
			m.ServeBatch(f.batch)
			continue
		}
		for k := range f.muts {
			if err := m.ApplyTopology(f.muts[k : k+1]); err != nil {
				return tenantLedger{}, fmt.Errorf("frame %d mutation %d: %w", j, k, err)
			}
		}
	}
	led := m.Ledger()
	return tenantLedger{
		LastSeq: uint64(frames), Rounds: m.Round(),
		Serve: led.Serve, Move: led.Move, Fetched: led.Fetched, Evicted: led.Evicted,
	}, nil
}

// compareLedgers requires got to equal want tenant by tenant.
func compareLedgers(want, got []tenantLedger) error {
	if len(want) != len(got) {
		return fmt.Errorf("gate: %d tenant ledgers, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("gate: tenant %d: daemon reports %+v, expected %+v", i, got[i], want[i])
		}
	}
	return nil
}

// recover measures fib-durable's recovery: it cold-starts the killed
// daemon from its state directory several times, killing each restart
// again so the WAL is never truncated, and requires every restart to
// come back with the pre-kill ledgers and sequence numbers.
func (r *runResult) recover(w *workload, trees []*tree.Tree, dir string, pre []tenantLedger) error {
	for k := 0; k < recoveryReps; k++ {
		t0 := time.Now()
		srv, err := server.New(daemonConfig(w, trees, dir, nil))
		if err != nil {
			return err
		}
		if err := srv.Start(); err != nil {
			return fmt.Errorf("restart %d: %w", k, err)
		}
		r.recoveries = append(r.recoveries, time.Since(t0).Nanoseconds())
		got, err := daemonLedgers(srv.Addr())
		var replayed int64
		for i := range trees {
			replayed += srv.Replayed(i) * int64(w.frame)
		}
		r.replayedReqs = replayed
		srv.Kill()
		if err != nil {
			return fmt.Errorf("restart %d: %w", k, err)
		}
		if err := compareLedgers(pre, got); err != nil {
			return fmt.Errorf("restart %d: %w", k, err)
		}
	}
	return nil
}
