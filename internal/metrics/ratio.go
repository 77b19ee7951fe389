package metrics

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/opt"
	"repro/internal/trace"
	"repro/internal/tree"
)

// RatioConfig parameterises a RatioMonitor.
type RatioConfig struct {
	// Tree is the (static) rule tree the monitored instance serves.
	Tree *tree.Tree
	// Alpha is the movement cost; Capacity the offline cache size
	// k_OPT the online algorithm is compared against.
	Alpha    int64
	Capacity int
	// Window is the number of requests per evaluation window; each time
	// at least Window requests have accumulated the offline optimum of
	// the accumulated slice is computed and the ratio gauge updated.
	// Default 256. Observations are batch-granular, so a window may
	// overshoot Window by up to one batch.
	Window int
	// Exact selects the exact offline DP (internal/opt.Exact,
	// exponential — requires Tree.Len() <= opt.MaxExactNodes); when
	// false the scalable best-static-cache knapsack (opt.Static) is the
	// offline yardstick, which upper-bounds the true ratio's
	// denominator, so the reported ratio lower-bounds the ratio against
	// static offline and is comparable across windows.
	Exact bool
}

// RatioMonitor turns the paper's competitive-ratio guarantee into a
// live SLO metric: it streams (request window, online cost) pairs and
// periodically computes online/offline over the window, where offline
// is the internal/opt DP (exact for small trees, best-static
// otherwise). The engine feeds it per-batch from shard workers;
// standalone serve loops can feed it directly via Observe.
//
// Windowed-ratio caveat (also in the README): each window's offline
// optimum starts from an empty cache while the online algorithm
// carries its cache across window boundaries, so a single window's
// ratio is an estimate, not a per-window bound — it can dip below 1
// right after a phase ends or spike right after one begins. The
// rolling maximum (Worst) over many windows is the operationally
// meaningful SLO signal.
//
// Windows are scored against the tree the monitor was built with. A
// window that requests a node outside it — a rule announced by a
// topology mutation after construction — cannot be scored, so it is
// skipped and counted (Skipped) instead.
//
// All methods are safe for concurrent use.
type RatioMonitor struct {
	mu      sync.Mutex
	cfg     RatioConfig
	pending trace.Trace
	cost    int64 // online cost accumulated over pending
	ratio   float64
	worst   float64
	windows int64
	skipped int64
}

// NewRatioMonitor validates cfg and builds a monitor. It panics on a
// nil tree or an Exact request beyond opt.MaxExactNodes (programmer
// input, same convention as engine.New).
func NewRatioMonitor(cfg RatioConfig) *RatioMonitor {
	if cfg.Tree == nil {
		panic("metrics: RatioConfig.Tree must not be nil")
	}
	if cfg.Exact && cfg.Tree.Len() > opt.MaxExactNodes {
		panic(fmt.Sprintf("metrics: exact ratio monitoring needs <= %d nodes, got %d", opt.MaxExactNodes, cfg.Tree.Len()))
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	return &RatioMonitor{cfg: cfg}
}

// Observe appends one served batch and its online cost (the ledger
// delta the batch produced: serve + move). When the accumulated window
// reaches the configured size, the offline optimum of the window is
// computed and the ratio gauge updated. The batch is copied, so the
// caller may recycle it immediately.
func (m *RatioMonitor) Observe(batch trace.Trace, cost int64) {
	if len(batch) == 0 && cost == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = append(m.pending, batch...)
	m.cost += cost
	if len(m.pending) >= m.cfg.Window {
		m.evaluate()
	}
}

// Flush evaluates any partial window immediately (useful at drain /
// shutdown so trailing requests are not lost from the gauge).
func (m *RatioMonitor) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) > 0 {
		m.evaluate()
	}
}

// evaluate folds the open window into the gauges, or counts it as
// skipped when it requests a node outside the monitor's tree, and
// empties it. Called with mu held.
func (m *RatioMonitor) evaluate() {
	if m.scorable() {
		m.score()
	} else {
		m.skipped++
	}
	m.pending = m.pending[:0]
	m.cost = 0
}

// scorable reports whether every request of the open window names a
// node of the monitor's tree.
func (m *RatioMonitor) scorable() bool {
	n := tree.NodeID(m.cfg.Tree.Len())
	for _, r := range m.pending {
		if r.Node < 0 || r.Node >= n {
			return false
		}
	}
	return true
}

// score computes offline(window) and updates the ratio gauges.
func (m *RatioMonitor) score() {
	var offline int64
	if m.cfg.Exact {
		offline = opt.Exact(m.cfg.Tree, m.pending, m.cfg.Capacity, m.cfg.Alpha).Cost
	} else {
		offline = opt.Static(m.cfg.Tree, m.pending, m.cfg.Capacity, m.cfg.Alpha).Cost
	}
	switch {
	case offline > 0:
		m.ratio = float64(m.cost) / float64(offline)
	case m.cost == 0:
		m.ratio = 1 // both free: trivially competitive
	default:
		m.ratio = math.Inf(1) // online paid on a free window
	}
	if m.ratio > m.worst {
		m.worst = m.ratio
	}
	m.windows++
}

// Ratio returns the most recent window's competitive ratio and whether
// any window has completed yet.
func (m *RatioMonitor) Ratio() (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ratio, m.windows > 0
}

// Worst returns the maximum window ratio observed (0 before the first
// window) — the SLO headline number.
func (m *RatioMonitor) Worst() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worst
}

// Windows returns how many windows have been evaluated.
func (m *RatioMonitor) Windows() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windows
}

// Skipped returns how many windows were not scored because they
// request a node outside the monitor's tree.
func (m *RatioMonitor) Skipped() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.skipped
}

// Pending returns how many requests are waiting in the open window.
func (m *RatioMonitor) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}
