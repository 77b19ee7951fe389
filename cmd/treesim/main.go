// Command treesim runs online tree-caching algorithms over synthetic
// workloads (or a trace file) and prints a cost comparison.
//
// Usage examples:
//
//	treesim -tree binary -nodes 1023 -alpha 8 -capacity 128 -rounds 100000 -workload zipf
//	treesim -tree path -nodes 64 -workload churn -negfrac 0.3
//	treesim -tree star -nodes 100 -trace requests.txt
//
// The trace file format is one request per line: "+<node>" (positive)
// or "-<node>" (negative); '#' starts a comment.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tree"
)

func main() {
	var (
		shape    = flag.String("tree", "binary", "tree shape: path|star|binary|ternary|caterpillar|random")
		nodes    = flag.Int("nodes", 1023, "number of tree nodes")
		alpha    = flag.Int64("alpha", 8, "per-node fetch/evict cost α (even integer ≥ 2)")
		capacity = flag.Int("capacity", 128, "online cache size k_ONL")
		rounds   = flag.Int("rounds", 100000, "workload length")
		workload = flag.String("workload", "zipf", "workload: zipf|uniform|churn|workingset")
		zipfS    = flag.Float64("zipf", 1.1, "Zipf exponent for zipf/churn workloads")
		negFrac  = flag.Float64("negfrac", 0.1, "update burst probability for churn workload")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		traceIn  = flag.String("trace", "", "read the workload from this trace file instead")
		static   = flag.Bool("static", true, "also compute the optimal static cache")
		snapOut  = flag.String("snapshot-out", "", "crash-restart drill: dump the TC state to this file mid-run and verify a restart from it matches the uninterrupted run")
		snapAt   = flag.Int("snapshot-at", 0, "round at which -snapshot-out captures (default: half the workload)")
		snapIn   = flag.String("snapshot-in", "", "resume from a snapshot file: skip the rounds it already served, serve the rest, compare against a fresh uninterrupted run (pass the same workload flags)")

		remote       = flag.String("remote", "", "replay the workload against a treecached daemon at this address instead of locally, then verify its served ledger against a local sequential run (the daemon must be configured with the same tree/alpha/capacity)")
		remoteFrom   = flag.Int("remote-from", 0, "with -remote: skip the first N rounds, assuming the daemon already served them before a restart; the parity check covers rounds [0, -remote-to)")
		remoteTo     = flag.Int("remote-to", 0, "with -remote: stop after round N (default: whole workload) — run 1 of a kill/restart drill serves [0,N), run 2 passes -remote-from N")
		remoteBatch  = flag.Int("remote-batch", 64, "with -remote: requests per wire batch")
		remoteTenant = flag.Int("remote-tenant", 0, "with -remote: tenant id to replay as")
		remoteHard   = flag.Bool("remote-hardkill", false, "with -remote: hard-kill parity mode — skip the end-of-run checkpoint (the daemon gets SIGKILL, not SIGTERM, and must recover from its WAL) and, with -remote-from, assert the daemon's recovered LastSeq matches the batches a previous life acknowledged")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	t, err := tree.FromShape(rng, *shape, *nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	input, err := buildWorkload(rng, t, *workload, *rounds, *zipfS, *negFrac, *alpha, *traceIn)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("tree: %v  alpha: %d  capacity: %d  requests: %d\n\n", t, *alpha, *capacity, len(input))

	if *remote != "" {
		if err := runRemote(t, input, *alpha, *capacity, *remote, *remoteFrom, *remoteTo, *remoteBatch, *remoteTenant, *remoteHard); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *snapOut != "" || *snapIn != "" {
		if err := runSnapshotDrill(t, input, *alpha, *capacity, *snapOut, *snapIn, *snapAt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	algos := []sim.Algorithm{
		core.New(t, core.Config{Alpha: *alpha, Capacity: *capacity}),
		baseline.NewEager(t, baseline.Config{Alpha: *alpha, Capacity: *capacity, Policy: baseline.LRU}),
		baseline.NewEager(t, baseline.Config{Alpha: *alpha, Capacity: *capacity, Policy: baseline.LRU, EvictOnUpdate: true}),
		baseline.NewEager(t, baseline.Config{Alpha: *alpha, Capacity: *capacity, Policy: baseline.FIFO}),
		baseline.NewEager(t, baseline.Config{Alpha: *alpha, Capacity: *capacity, Policy: baseline.Rand, Seed: *seed}),
		baseline.NewNoCache(*alpha),
	}
	tb := stats.NewTable("algorithm", "total", "serve", "move", "fetched", "evicted", "maxCache", "p50 ns", "p99 ns", "p999 ns")
	for _, a := range algos {
		res, lat := runTimed(a, input)
		tb.AddRow(res.Algorithm, res.Total(), res.Serve, res.Move, res.Fetched, res.Evicted, res.MaxCache,
			lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999))
	}
	if *static {
		st := opt.Static(t, input, *capacity, *alpha)
		tb.AddRow("Static-OPT", st.Cost, "-", "-", len(st.Set), 0, len(st.Set), "-", "-", "-")
	}
	tb.Render(os.Stdout)
}

// runTimed is sim.Run plus wall-clock timing: each Serve call is timed
// individually into a latency histogram so the table can report true
// (not amortized) per-request decision-latency quantiles per algorithm.
func runTimed(a sim.Algorithm, input trace.Trace) (sim.Result, metrics.Histogram) {
	a.Reset()
	var lat metrics.Histogram
	res := sim.Result{Algorithm: a.Name()}
	for _, req := range input {
		start := time.Now()
		a.Serve(req)
		lat.Record(time.Since(start).Nanoseconds())
		res.Rounds++
		if c := a.CacheLen(); c > res.MaxCache {
			res.MaxCache = c
		}
	}
	led := a.Ledger()
	res.Serve = led.Serve
	res.Move = led.Move
	res.Fetched = led.Fetched
	res.Evicted = led.Evicted
	return res, lat
}

// runRemote replays the workload slice input[from:to) against a
// running treecached daemon over its wire protocol, then fetches the
// daemon's cumulative served ledger and compares it cost-for-cost
// against a local sequential replay of input[:to) — the daemon is
// expected to have served [0, from) already (in a previous process
// life) and nothing beyond to.
//
// Together the bounds form the SIGTERM-restart parity drill: run 1
// passes -remote-to N and serves [0, N), the daemon is killed and
// restarted from its checkpoint, run 2 passes -remote-from N for the
// remainder, and each run's ledger must equal the uninterrupted local
// run's prefix — proving the drain checkpoint lost nothing and the
// restored sequence table deduplicated nothing it shouldn't have.
//
// hardkill switches to the SIGKILL variant of the drill: no end-of-run
// checkpoint is requested (the daemon dies without warning and must
// recover from its write-ahead log), the client's retry/backoff budget
// rides through the kill-restart windows, and a run with from > 0
// additionally asserts that the recovered daemon's LastSeq equals the
// number of batches a previous life acknowledged — the zero-
// acknowledged-loss check, not just cost parity.
func runRemote(t *tree.Tree, input trace.Trace, alpha int64, capacity int, addr string, from, to, batchSize, tenant int, hardkill bool) error {
	if to <= 0 || to > len(input) {
		to = len(input)
	}
	if from < 0 || from > to {
		return fmt.Errorf("treesim: -remote-from %d out of range [0,%d]", from, to)
	}
	input = input[:to]
	if batchSize <= 0 {
		batchSize = 64
	}
	cl := client.New(client.Config{Addr: addr})
	defer cl.Close()
	// Pick sequence numbering up where the previous process (if any)
	// left off; a fresh daemon reports LastSeq 0.
	if err := cl.Resume(tenant); err != nil {
		return fmt.Errorf("treesim: resume: %w", err)
	}
	if hardkill && from > 0 {
		// Zero acknowledged loss: every batch a previous process life
		// acked must have survived the kill into the recovered daemon's
		// sequence table. [0, from) was sent in ceil(from/batchSize)
		// batches, every one acknowledged before that run exited 0.
		pre, err := cl.Stats(tenant)
		if err != nil {
			return fmt.Errorf("treesim: stats: %w", err)
		}
		want := uint64((from + batchSize - 1) / batchSize)
		if pre.LastSeq != want {
			return fmt.Errorf("treesim: hard-kill drill FAILED: recovered LastSeq %d, want %d — an acknowledged batch was lost (or replayed twice)", pre.LastSeq, want)
		}
		fmt.Printf("remote: recovered LastSeq %d matches the %d acknowledged batches\n", pre.LastSeq, want)
	}
	sent := 0
	for lo := from; lo < len(input); lo += batchSize {
		hi := lo + batchSize
		if hi > len(input) {
			hi = len(input)
		}
		if err := cl.Serve(tenant, input[lo:hi]); err != nil {
			return fmt.Errorf("treesim: batch at round %d: %w", lo, err)
		}
		sent += hi - lo
	}
	// Checkpoint so a follow-up run starts from here — except in
	// hard-kill mode, where the point is that the daemon dies without
	// one and recovers from its WAL. (Snapshot failure outside that
	// mode only means no -state-dir; the parity check below is still
	// valid then.)
	if !hardkill {
		if err := cl.Snapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "treesim: snapshot skipped: %v\n", err)
		}
	}
	reply, err := cl.Stats(tenant)
	if err != nil {
		return fmt.Errorf("treesim: stats: %w", err)
	}
	fmt.Printf("remote: sent %d rounds to %s (from round %d); daemon ledger: rounds=%d total=%d serve=%d move=%d restarts=%d dropped=%d\n",
		sent, addr, from, reply.Rounds, reply.Total(), reply.Serve, reply.Move, reply.Restarts, reply.Dropped)

	oracle := core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: alpha, Capacity: capacity}})
	for _, r := range input {
		oracle.Serve(r)
	}
	led := oracle.Ledger()
	fmt.Printf("local:  uninterrupted ledger: rounds=%d total=%d serve=%d move=%d\n",
		oracle.Round(), led.Total(), led.Serve, led.Move)
	if reply.Rounds != oracle.Round() || reply.Serve != led.Serve || reply.Move != led.Move ||
		reply.Fetched != led.Fetched || reply.Evicted != led.Evicted {
		return fmt.Errorf("treesim: remote parity FAILED: daemon ledger diverged from the local sequential run")
	}
	fmt.Println("remote parity: daemon ledger matches the local sequential run")
	return nil
}

// runSnapshotDrill exercises the crash-restart path on a snapshot-
// capable dynamic TC instance.
//
// With -snapshot-out: serve the first -snapshot-at rounds, dump the
// state to the file, keep serving to the end (the uninterrupted run),
// then restore a second instance from the file on disk, serve it the
// same suffix, and require cost-for-cost agreement.
//
// With -snapshot-in: restore from the file, skip the rounds the
// snapshot already served (the snapshot records its own round cursor),
// serve the remainder, and compare against a fresh uninterrupted run —
// the two-process version of the same drill, for use after a real
// restart.
func runSnapshotDrill(t *tree.Tree, input trace.Trace, alpha int64, capacity int, out, in string, at int) error {
	mk := func() *core.MutableTC {
		return core.NewMutable(t, core.MutableConfig{Config: core.Config{Alpha: alpha, Capacity: capacity}})
	}
	serve := func(m *core.MutableTC, tr trace.Trace) {
		for _, r := range tr {
			m.Serve(r)
		}
	}
	report := func(label string, m *core.MutableTC) {
		led := m.Ledger()
		fmt.Printf("%-14s round=%d total=%d serve=%d move=%d cached=%d\n",
			label+":", m.Round(), led.Total(), led.Serve, led.Move, m.CacheLen())
	}
	verdict := func(a, b *core.MutableTC) error {
		if a.Ledger() != b.Ledger() || a.CacheLen() != b.CacheLen() {
			return fmt.Errorf("treesim: snapshot drill FAILED: restarted run diverged from the uninterrupted run")
		}
		fmt.Println("snapshot drill: restarted run matches the uninterrupted run")
		return nil
	}

	if in != "" {
		blob, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		m, err := snapshot.Restore(blob)
		if err != nil {
			return fmt.Errorf("treesim: %s: %v", in, err)
		}
		skip := int(m.Round())
		if skip > len(input) {
			return fmt.Errorf("treesim: snapshot already served %d rounds but the workload has only %d (same flags as the dumping run?)", skip, len(input))
		}
		fmt.Printf("resumed from %s at round %d\n", in, skip)
		serve(m, input[skip:])
		report("resumed", m)
		ref := mk()
		serve(ref, input)
		report("uninterrupted", ref)
		return verdict(m, ref)
	}

	if at <= 0 || at > len(input) {
		at = len(input) / 2
	}
	m := mk()
	serve(m, input[:at])
	blob, err := snapshot.Capture(m)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("dumped %d bytes to %s at round %d\n", len(blob), out, at)
	serve(m, input[at:])
	report("uninterrupted", m)
	blob, err = os.ReadFile(out)
	if err != nil {
		return err
	}
	m2, err := snapshot.Restore(blob)
	if err != nil {
		return fmt.Errorf("treesim: %s: %v", out, err)
	}
	serve(m2, input[at:])
	report("restarted", m2)
	return verdict(m, m2)
}

func buildWorkload(rng *rand.Rand, t *tree.Tree, kind string, rounds int, zipfS, negFrac float64, alpha int64, traceIn string) (trace.Trace, error) {
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return nil, err
		}
		if err := tr.Validate(t); err != nil {
			return nil, err
		}
		return tr, nil
	}
	switch kind {
	case "zipf":
		return trace.ZipfNodes(rng, t, rounds, zipfS), nil
	case "uniform":
		return trace.UniformPositive(rng, t, rounds), nil
	case "churn":
		return trace.Churn(rng, t, trace.ChurnConfig{
			Rounds: rounds, ZipfS: zipfS, UpdateFrac: negFrac, BurstLen: int(alpha),
		}), nil
	case "workingset":
		return trace.WorkingSet(rng, t, rounds, t.Len()/10+1, rounds/20+1, 0.9), nil
	default:
		return nil, fmt.Errorf("treesim: unknown workload %q", kind)
	}
}
