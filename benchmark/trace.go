package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// A traced run times calls into each layer's public functions from
// outside the daemon: the client side times wire encoding and each
// frame's send→ack, and a server.Config.Wrap shim times every call the
// engine makes into a shard's algorithm. Spans stay in memory and are
// written when the run ends.

// span is one timed call, in nanoseconds since the tracer's base.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// msgRef names the engine message a shard served last: the ord-th
// ServeBatch call, or the ord-th ApplyTopology call; ord is -1 before
// the first.
type msgRef struct {
	topo bool
	ord  int
}

// capture is one supervision snapshot and the verification of its
// blob that follows it.
type capture struct {
	span
	verify span
	bytes  int
	after  msgRef // the message served last before it
	// cadence marks the captures the checkpoint cadence takes inside a
	// served message. The others are taken at engine start and at Drain
	// points, which the benchmark itself causes at the edges of the
	// timed window.
	cadence bool
}

// shardRec is one shard's spans. Only the shard's engine worker writes
// it; the tracer reads it after Drain or Close, which order the two.
type shardRec struct {
	base  time.Time
	serve []span // k-th entry: the k-th ServeBatch call = the tenant's k-th serve frame
	topo  []span // one per ApplyTopology call; the engine passes one mutation per call
	snaps []capture
	last  msgRef
	// msgs counts engine messages since the last capture, as the
	// engine's supervision journal does; a topology message arrives as
	// consecutive ApplyTopology calls.
	msgs   int
	inTopo bool
}

func (r *shardRec) now() int64 { return time.Since(r.base).Nanoseconds() }

// tracedAlgo is the Wrap shim. Besides the server.Algo methods it
// forwards engine.SnapshotVerifier: without it the engine would
// silently stop verifying checkpoints and the traced daemon would
// differ from the production one.
type tracedAlgo struct {
	server.Algo
	rec *shardRec
}

var (
	_ server.Algo             = (*tracedAlgo)(nil)
	_ engine.SnapshotVerifier = (*tracedAlgo)(nil)
)

func (a *tracedAlgo) ServeBatch(batch trace.Trace) (int64, int64) {
	t0 := a.rec.now()
	s, m := a.Algo.ServeBatch(batch)
	a.rec.serve = append(a.rec.serve, span{t0, a.rec.now()})
	a.rec.last = msgRef{ord: len(a.rec.serve) - 1}
	a.rec.msgs++
	a.rec.inTopo = false
	return s, m
}

func (a *tracedAlgo) ApplyTopology(muts []trace.Mutation) error {
	t0 := a.rec.now()
	err := a.Algo.ApplyTopology(muts)
	a.rec.topo = append(a.rec.topo, span{t0, a.rec.now()})
	a.rec.last = msgRef{topo: true, ord: len(a.rec.topo) - 1}
	if !a.rec.inTopo {
		a.rec.msgs++
		a.rec.inTopo = true
	}
	return err
}

func (a *tracedAlgo) Snapshot() ([]byte, error) {
	t0 := a.rec.now()
	blob, err := a.Algo.Snapshot()
	a.rec.snaps = append(a.rec.snaps, capture{
		span: span{t0, a.rec.now()}, bytes: len(blob), after: a.rec.last,
		cadence: a.rec.msgs == checkpointEvery,
	})
	a.rec.msgs = 0
	a.rec.inTopo = false
	return blob, err
}

// VerifySnapshot forwards to the inner verifier when there is one.
// The engine verifies each blob right after capturing it.
func (a *tracedAlgo) VerifySnapshot(data []byte) error {
	v, ok := a.Algo.(engine.SnapshotVerifier)
	if !ok {
		return nil
	}
	t0 := a.rec.now()
	err := v.VerifySnapshot(data)
	if n := len(a.rec.snaps); n > 0 {
		a.rec.snaps[n-1].verify = span{t0, a.rec.now()}
	}
	return err
}

// frameTrace is the client side of one frame.
type frameTrace struct {
	n         int   // requests, or mutations on a topology frame
	topo      bool  // topology frame
	send, ack int64 // client.Serve / ApplyTopology call and return
	enc, dec  span  // wire.Serve.Encode and wire.DecodeServe of the frame (serve frames)
	bytes     int   // encoded frame size, header included
}

// tracer collects one traced run.
type tracer struct {
	w      *workload
	warm   int // warm-up cycles per tenant
	base   time.Time
	shards []*shardRec
	frames [][]frameTrace // per tenant

	t0, t1     int64 // timed window
	st0, st1   engine.Stats
	depth      []int // queue depth samples, every shard every 10 ms
	stopSample chan struct{}
	sampled    sync.WaitGroup
	wal        walScrape
}

func newTracer(w *workload, warm int) *tracer {
	return &tracer{
		w: w, warm: warm, base: time.Now(),
		shards: make([]*shardRec, tenants),
		frames: make([][]frameTrace, tenants),
	}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// wrap is the server.Config.Wrap hook. The daemon calls it once per
// shard at every boot; the last boot's recorders are the run's.
func (t *tracer) wrap(shard int, a server.Algo) server.Algo {
	rec := &shardRec{base: t.base, last: msgRef{ord: -1}}
	t.shards[shard] = rec
	return &tracedAlgo{Algo: a, rec: rec}
}

// wireCost times the wire codec on a serve frame: encoding it as the
// client does and decoding it as the daemon does.
func (t *tracer) wireCost(tenant int, seq uint64, f frame) frameTrace {
	if f.batch == nil {
		return frameTrace{n: len(f.muts), topo: true}
	}
	m := wire.Serve{Tenant: tenant, Seq: seq, DeadlineNs: int64(5 * time.Second), Batch: f.batch}
	t0 := time.Now()
	p := m.Encode()
	t1 := time.Now()
	_, err := wire.DecodeServe(p)
	t2 := time.Now()
	if err != nil {
		panic(fmt.Sprintf("benchmark: wire round trip of its own frame failed: %v", err))
	}
	return frameTrace{
		n: len(f.batch), bytes: wire.HeaderLen + len(p),
		enc: span{t.since(t0), t.since(t1)}, dec: span{t.since(t1), t.since(t2)},
	}
}

// begin opens the timed window: engine counters are read and the
// queue-depth sampler starts.
func (t *tracer) begin(eng *engine.Engine) {
	t.st0 = eng.Stats()
	t.t0 = t.since(time.Now())
	t.stopSample = make(chan struct{})
	t.sampled.Add(1)
	go func() {
		defer t.sampled.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopSample:
				return
			case <-tick.C:
				for _, s := range eng.Stats().Shards {
					t.depth = append(t.depth, s.QueueDepth)
				}
			}
		}
	}()
}

// end closes the timed window and, with a WAL, scrapes the daemon's
// /metrics for its durability counters.
func (t *tracer) end(eng *engine.Engine, adminAddr string, wal bool) error {
	t.t1 = t.since(time.Now())
	close(t.stopSample)
	t.sampled.Wait()
	t.st1 = eng.Stats()
	if wal {
		s, err := scrapeWAL(adminAddr)
		if err != nil {
			return err
		}
		t.wal = s
	}
	return nil
}

// walScrape is the fleet's WAL counters from /metrics at run end.
type walScrape struct {
	records, bytes, fsyncs float64
	p50, p99               []float64 // per-shard fsync latency quantiles, ns
}

func scrapeWAL(adminAddr string) (walScrape, error) {
	var s walScrape
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		switch {
		case strings.HasPrefix(name, "treecache_wal_records_total{"):
			s.records += v
		case strings.HasPrefix(name, "treecache_wal_bytes_total{"):
			s.bytes += v
		case strings.HasPrefix(name, "treecache_wal_fsyncs_total{"):
			s.fsyncs += v
		case strings.HasPrefix(name, "treecache_wal_fsync_latency_ns_quantile{"):
			if strings.Contains(name, `quantile="0.5"`) {
				s.p50 = append(s.p50, v)
			} else if strings.Contains(name, `quantile="0.99"`) {
				s.p99 = append(s.p99, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	if s.fsyncs == 0 {
		return s, fmt.Errorf("scrape /metrics: no WAL fsyncs reported")
	}
	return s, nil
}

// layerMetric is one per-layer value with its unit and the number of
// samples or events behind it.
type layerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// layerTable is the per-layer table of a traced run, by metric name.
type layerTable map[string]layerMetric

func (l layerTable) set(name string, v float64, unit string, n int64) {
	l[name] = layerMetric{Value: v, Unit: unit, N: n}
}

// report derives the per-layer metrics over the timed window. Worker
// busy time is the engine's BusyNs (which times each serve message,
// supervision checkpoints included) plus topology calls and the
// checkpoints that follow them, which BusyNs does not time. Only
// cadence checkpoints count: the Drain checkpoints at the window's
// edges are the benchmark's, not the workload's.
func (t *tracer) report(r *runResult) layerTable {
	l := layerTable{}
	in := func(s span) bool { return s.start >= t.t0 && s.start < t.t1 }
	window := float64(t.t1 - t.t0)
	reqs := float64(r.timedReqs)

	var serveNs, serveReqs, topoNs, topoCalls int64
	var snapOnServe, snapOnTopo int64 // capture plus verification
	var capDur, verDur []int64
	var blobBytes int64
	for _, s := range t.shards {
		for _, sp := range s.serve {
			if in(sp) {
				serveNs += sp.dur()
				serveReqs += int64(t.w.frame)
			}
		}
		for _, sp := range s.topo {
			if in(sp) {
				topoNs += sp.dur()
				topoCalls++
			}
		}
		for _, c := range s.snaps {
			if !c.cadence || !in(c.span) {
				continue
			}
			capDur = append(capDur, c.dur())
			verDur = append(verDur, c.verify.dur())
			blobBytes += int64(c.bytes)
			if c.after.topo {
				snapOnTopo += c.dur() + c.verify.dur()
			} else {
				snapOnServe += c.dur() + c.verify.dur()
			}
		}
	}
	busyNs := t.st1.BusyNs - t.st0.BusyNs
	worker := float64(busyNs + topoNs + snapOnTopo)

	l.set("core.serve_ns_per_req", ratio(float64(serveNs), float64(serveReqs)), "ns", serveReqs)
	l.set("core.busy_share", ratio(float64(serveNs), worker), "1", serveReqs)
	l.set("core.fetched_per_kreq", ratio(float64(t.st1.Fetched-t.st0.Fetched), reqs/1e3), "count", r.timedReqs)
	l.set("core.evicted_per_kreq", ratio(float64(t.st1.Evicted-t.st0.Evicted), reqs/1e3), "count", r.timedReqs)
	l.set("core.topo_us_per_mut", ratio(float64(topoNs)/1e3, float64(topoCalls)), "us", topoCalls)

	l.set("snapshot.capture_ms_p50", quantile(capDur, 0.5)/1e6, "ms", int64(len(capDur)))
	l.set("snapshot.captures_per_mreq", ratio(float64(len(capDur)), reqs/1e6), "count", int64(len(capDur)))
	l.set("snapshot.blob_kib", ratio(float64(blobBytes)/1024, float64(len(capDur))), "KiB", int64(len(capDur)))
	l.set("snapshot.busy_share", ratio(float64(snapOnServe+snapOnTopo), worker), "1", int64(len(capDur)))
	l.set("snapshot.verify_us_p50", quantile(verDur, 0.5)/1e3, "us", int64(len(verDur)))

	l.set("engine.busy_frac", ratio(worker, window*float64(len(t.shards))), "1", int64(len(t.shards)))
	self := busyNs - serveNs - snapOnServe
	l.set("engine.self_ns_per_req", ratio(float64(self), reqs), "ns", r.timedReqs)
	var wait, rtt []int64
	var encNs, decNs, wireBytes, wireReqs int64
	for i, frames := range t.frames {
		k := 0 // serve frame ordinal
		for j, f := range frames {
			if f.topo {
				continue
			}
			if j >= t.warm*t.w.framesPerCycle() && k < len(t.shards[i].serve) {
				start := t.shards[i].serve[k].start
				wait = append(wait, start-f.send)
				if f.ack < start {
					rtt = append(rtt, f.ack-f.send)
				}
				encNs += f.enc.dur()
				decNs += f.dec.dur()
				wireBytes += int64(f.bytes)
				wireReqs += int64(f.n)
			}
			k++
		}
	}
	l.set("engine.dispatch_wait_us_p50", quantile(wait, 0.5)/1e3, "us", int64(len(wait)))
	l.set("engine.dispatch_wait_us_p99", quantile(wait, 0.99)/1e3, "us", int64(len(wait)))
	l.set("engine.queue_depth_mean", mean(t.depth), "count", int64(len(t.depth)))
	ck := t.st1.Checkpoints - t.st0.Checkpoints
	l.set("engine.checkpoint_accept_ratio", ratio(float64(ck), float64(ck+t.st1.CkptErrs-t.st0.CkptErrs)), "1", ck)

	l.set("wire.encode_ns_per_req", ratio(float64(encNs), float64(wireReqs)), "ns", wireReqs)
	l.set("wire.decode_ns_per_req", ratio(float64(decNs), float64(wireReqs)), "ns", wireReqs)
	l.set("wire.bytes_per_req", ratio(float64(wireBytes), float64(wireReqs)), "B", wireReqs)
	l.set("server.rtt_us_p50", quantile(rtt, 0.5)/1e3, "us", int64(len(rtt)))

	l.set("wal.fsync_us_p50", mean(t.wal.p50)/1e3, "us", int64(t.wal.fsyncs))
	l.set("wal.fsync_us_p99", mean(t.wal.p99)/1e3, "us", int64(t.wal.fsyncs))
	l.set("wal.records_per_fsync", ratio(t.wal.records, t.wal.fsyncs), "count", int64(t.wal.fsyncs))
	l.set("wal.bytes_per_req", ratio(t.wal.bytes, float64(r.requests)), "B", int64(t.wal.records))
	l.set("wal.replay_ns_per_req", ratio(r.recoveryS*1e9, float64(r.replayedReqs)), "ns", r.replayedReqs)
	l.set("wal.recovery_s", r.recoveryS, "s", int64(len(r.recoveries)))

	l.set("ack_p999_us", quantileSorted(r.lat, 0.999)/1e3, "us", int64(len(r.lat)))
	l.set("client.retry_frac", ratio(float64(r.retries), float64(r.attempted)), "1", r.attempted)
	return l
}

// writeSpans writes every recorded span as gzip-compressed CSV. Spans
// of one frame share its trace id; a span's parent is the span that
// caused it (the frame for codec and engine calls, the served message
// for supervision checkpoints).
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	werr := t.emitSpans(bw)
	for _, err := range []error{werr, bw.Flush(), zw.Close(), f.Close()} {
		if err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

func (t *tracer) emitSpans(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "trace_id,span_id,parent_id,name,shard,start_ns,end_ns,n,bytes"); err != nil {
		return err
	}
	var id int64
	line := func(traceID, parent int64, name string, shard int, s span, n, bytes int) (int64, error) {
		id++
		_, err := fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d,%d,%d\n", traceID, id, parent, name, shard, s.start, s.end, n, bytes)
		return id, err
	}
	for i, frames := range t.frames {
		rec := t.shards[i]
		// Span and trace ids of each ServeBatch and ApplyTopology call.
		type ref struct{ id, trace int64 }
		serveSpan := make([]ref, 0, len(rec.serve))
		topoSpan := make([]ref, 0, len(rec.topo))
		var muts int
		for j, f := range frames {
			traceID := int64(i+1)<<40 | int64(j)
			root, err := line(traceID, 0, "client.frame", i, span{f.send, f.ack}, f.n, f.bytes)
			if err != nil {
				return err
			}
			if f.topo {
				// The engine applies a topology frame one mutation per
				// call.
				for k := 0; k < f.n && muts < len(rec.topo); k++ {
					sid, err := line(traceID, root, "core.ApplyTopology", i, rec.topo[muts], 1, 0)
					if err != nil {
						return err
					}
					topoSpan = append(topoSpan, ref{sid, traceID})
					muts++
				}
				continue
			}
			if _, err := line(traceID, root, "wire.Encode", i, f.enc, f.n, f.bytes); err != nil {
				return err
			}
			if _, err := line(traceID, root, "wire.DecodeServe", i, f.dec, f.n, f.bytes); err != nil {
				return err
			}
			if k := len(serveSpan); k < len(rec.serve) {
				sid, err := line(traceID, root, "core.ServeBatch", i, rec.serve[k], f.n, 0)
				if err != nil {
					return err
				}
				serveSpan = append(serveSpan, ref{sid, traceID})
			}
		}
		// A capture belongs to the message served before it (captures
		// at engine start have none); its verification follows it in
		// the same message.
		for _, c := range rec.snaps {
			var parent ref
			switch {
			case c.after.ord < 0:
			case c.after.topo && c.after.ord < len(topoSpan):
				parent = topoSpan[c.after.ord]
			case !c.after.topo && c.after.ord < len(serveSpan):
				parent = serveSpan[c.after.ord]
			}
			cid, err := line(parent.trace, parent.id, "snapshot.Capture", i, c.span, 0, c.bytes)
			if err != nil {
				return err
			}
			if _, err := line(parent.trace, cid, "snapshot.Verify", i, c.verify, 0, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceFile is the per-layer table written next to the spans.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WindowS  float64 `json:"window_s"`
	// Tracing overhead: the untraced and traced runs' throughput and
	// the traced run's shortfall as a share of the untraced one.
	UntracedRPS   float64    `json:"untraced_throughput_rps"`
	TracedRPS     float64    `json:"traced_throughput_rps"`
	OverheadShare float64    `json:"tracing_overhead_share"`
	Layers        layerTable `json:"layers"`
}

func writeTraceFile(path string, tf traceFile) error {
	b, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func mean[T int | int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile sorts a copy of xs and returns its q-quantile.
func quantile(xs []int64, q float64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return quantileSorted(s, q)
}

// quantileSorted is the nearest-rank q-quantile of sorted xs, 0 when
// empty.
func quantileSorted(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return float64(xs[k])
}

// checkCounts asserts what the span-to-frame mapping rests on: the
// k-th ServeBatch call on shard s is tenant s's k-th serve frame (no
// faults are injected, so nothing is served twice), and every
// mutation reached the shard as one ApplyTopology call.
func (t *tracer) checkCounts() error {
	for i, frames := range t.frames {
		var serves, muts int
		for _, f := range frames {
			if f.topo {
				muts += f.n
			} else {
				serves++
			}
		}
		if got := len(t.shards[i].serve); got != serves {
			return fmt.Errorf("shard %d: %d ServeBatch calls for %d acknowledged serve frames", i, got, serves)
		}
		if got := len(t.shards[i].topo); got != muts {
			return fmt.Errorf("shard %d: %d ApplyTopology calls for %d acknowledged mutations", i, got, muts)
		}
	}
	return nil
}
