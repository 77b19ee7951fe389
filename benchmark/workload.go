package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/fib"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tree"
)

// The common set-up of every workload: a FIB-caching controller with
// one synthetic rule table per tenant, streaming Zipf packet traffic
// and BGP rule updates to treecached.
const (
	tenants    = 2       // one closed-loop client connection each
	fibRules   = 65536   // rules per tenant table
	capacity   = 4096    // switch cache size, rules
	alpha      = 8       // cost of moving one rule
	zipfS      = 1.0     // packet popularity skew
	updateRate = 0.01    // rule updates per packet, α negative requests each
	baseLen    = 1 << 20 // requests in the base trace each tenant cycles through
	topoMuts   = 16      // mutations per fib-churn topology frame
)

// workload is one traffic mix the benchmark drives.
type workload struct {
	name string
	// frame is the number of requests per serve frame.
	frame int
	// wal turns on durable acks: the daemon runs with -wal, and after
	// the timed window the benchmark kills it and measures recovery.
	wal bool
	// churn puts one topology frame of topoMuts mutations before every
	// serve frame.
	churn bool
	// nominalRPS is the request rate the workload reached when the
	// benchmark was defined (two clients on two CPUs). It converts
	// -seconds into the fixed amount of work a run does, so a run's
	// timed window lasts about -seconds at that commit and a slower
	// commit takes proportionally longer.
	nominalRPS float64
}

// workloads and why each exists (README.md has the measured shares).
var workloads = []*workload{
	{
		// Core serving does most of the work: serve-core gains show here,
		// per-frame costs should not.
		name:       "fib-bulk",
		frame:      8192,
		nominalRPS: 25e6,
	},
	{
		// Per-frame costs dominate: the round trip, admission and the
		// message-counted checkpoint cadence. A core-only gain should not
		// move it.
		name:       "fib-small",
		frame:      64,
		nominalRPS: 1.25e6,
	},
	{
		// The WAL's group commit sets ack latency; the kill and cold
		// restarts after the timed window exercise recovery.
		name:       "fib-durable",
		frame:      1024,
		wal:        true,
		nominalRPS: 0.76e6,
	},
	{
		// Topology writes next to reads, through the mutable core's
		// overlay and rebuilds and the topology message path.
		name:       "fib-churn",
		frame:      1024,
		churn:      true,
		nominalRPS: 3.9e6,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// framesPerCycle is how many frames one unit of work sends: a serve
// frame, preceded on fib-churn by a topology frame.
func (w *workload) framesPerCycle() int {
	if w.churn {
		return 2
	}
	return 1
}

// work returns the fixed work of one run, in cycles per tenant: timed
// cycles sized from -seconds and the nominal rate, plus a warm-up of
// one fifteenth of that, so the warm-up is the first 1/16 of frames.
func (w *workload) work(seconds float64, quick bool) (warm, timed int) {
	if quick {
		return 20, 300
	}
	timed = int(seconds * w.nominalRPS / float64(tenants*w.frame))
	if timed < 15 {
		timed = 15
	}
	return timed / 15, timed
}

// tenantInput is everything generated for one tenant from the seed.
type tenantInput struct {
	rules []fib.Rule  // the generated table's rules; set-up builds the table from them
	base  trace.Trace // packet and update requests, baseLen long
	// mutSeed seeds the fib-churn mutation stream.
	mutSeed int64
}

// tenantSeed derives tenant i's generator seed from the run seed.
func tenantSeed(seed int64, i int, salt int64) int64 {
	return seed*1_000_003 + int64(i)*7_919 + salt
}

// genInputs builds every tenant's rule list and base trace from seed,
// one goroutine per tenant.
func genInputs(seed int64) ([]tenantInput, error) {
	in := make([]tenantInput, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := range in {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(tenantSeed(seed, i, 1)))
			tb, err := fib.GenerateTable(rng, fib.TableConfig{Rules: fibRules})
			if err != nil {
				errs[i] = err
				return
			}
			rules := make([]fib.Rule, tb.Len())
			for v := range rules {
				rules[v] = tb.Rule(tree.NodeID(v))
			}
			// Every packet is one request and every update α, so baseLen
			// packets always yield at least baseLen requests.
			wl := fib.GenerateWorkload(rng, tb, fib.WorkloadConfig{
				Packets: baseLen, ZipfS: zipfS, UpdateRate: updateRate, Alpha: alpha,
			})
			in[i] = tenantInput{rules: rules, base: wl.Trace[:baseLen], mutSeed: tenantSeed(seed, i, 2)}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// frame is one message of a tenant's stream: a serve batch or a
// topology frame.
type frame struct {
	batch trace.Trace
	muts  []trace.Mutation
}

// stream yields one tenant's frames. The same input and workload
// always yield the same frames, which is what lets the correctness
// gate replay a run locally.
type stream struct {
	w    *workload
	base trace.Trace
	k    int  // serve frames yielded
	topo bool // the next frame is a topology frame
	zipf *stats.Zipf
	next tree.NodeID // next stable id the daemon's tenant allocates
}

func newStream(w *workload, in *tenantInput) *stream {
	s := &stream{w: w, base: in.base, topo: w.churn}
	if w.churn {
		s.zipf = stats.NewZipf(rand.New(rand.NewSource(in.mutSeed)), len(in.rules), zipfS, true)
		s.next = tree.NodeID(len(in.rules))
	}
	return s
}

// nextFrame returns the stream's next frame. Serve frames are consecutive
// slices of the base trace, wrapping around at its end (baseLen is a
// multiple of every frame size). On fib-churn a topology frame comes
// first in each cycle: topoMuts/2 rule announcements under
// Zipf-popular rules of the initial table, then their withdrawals in
// reverse order. Every frame therefore leaves the live table as it
// found it, the withdrawn rule is always a leaf, and stable ids keep
// growing because the daemon never reuses one.
func (s *stream) nextFrame() frame {
	if s.topo {
		s.topo = false
		muts := make([]trace.Mutation, 0, topoMuts)
		for i := 0; i < topoMuts/2; i++ {
			muts = append(muts, trace.InsertMut(s.next+tree.NodeID(i), tree.NodeID(s.zipf.Draw())))
		}
		for i := topoMuts/2 - 1; i >= 0; i-- {
			muts = append(muts, trace.DeleteMut(s.next+tree.NodeID(i)))
		}
		s.next += topoMuts / 2
		return frame{muts: muts}
	}
	s.topo = s.w.churn
	off := (s.k * s.w.frame) % len(s.base)
	s.k++
	return frame{batch: s.base[off : off+s.w.frame]}
}
