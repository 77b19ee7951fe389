// Dynamic-topology serve core: online rule insert/withdraw over the
// heavy-path TC.
//
// Every structure of the static TC (CSR layout, heavy paths, segment
// skeletons, the lazy positive/negative aggregates) is built against an
// immutable tree. MutableTC makes the topology a first-class mutable
// object without giving that up: the tree is a sequence of immutable
// snapshots (tree.Dyn, one topology epoch each), and small mutations
// are absorbed by an overlay until a tunable fraction of the snapshot
// has churned, at which point the instance performs one amortized
// state-migrating rebuild.
//
// Overlay representation (between rebuilds):
//
//   - an inserted leaf lives outside the snapshot: its counter is a
//     single overlay record, and its existence is folded into the
//     snapshot aggregates by a root-path range-add on its parent
//     (|P(u)| grows by one for every ancestor u while the leaf is
//     non-cached). Requests to the leaf run the same O(log² n)
//     machinery as snapshot requests: bump the ancestor prefix keys,
//     query the topmost saturated cap, propagate hval deltas from the
//     parent's slot. Fetches of a cap P(u) pick the non-cached overlay
//     leaves below T(u) up as joiners; evictions of H(r) take the
//     cached overlay leaves with hA ≥ 0 along.
//
//   - a deleted node is tombstoned ("phantom"): it is pinned as
//     permanently cached, which excludes it from every positive cap,
//     every fetch walk and every eviction walk without touching the
//     snapshot indexes; its negative slot holds the non-cached
//     sentinel so no hval walk ever includes it. Deleting a node
//     settles its counter into its parent: a non-cached deletion moves
//     cnt(v) into cnt(parent) (one +α/−1 root-path range-add — the sum
//     over every enclosing cap is unchanged, the sizes shrink), and a
//     cached deletion behaves as a forced single-node eviction per the
//     paper's eviction semantics (the counter resets with the
//     eviction, the node's hval contribution is removed from the
//     cached chain). Because a size shrink can leave an enclosing cap
//     saturated, deletions re-run the topmost-saturation query and
//     apply the resulting fetch immediately, restoring the
//     between-rounds invariant (Lemma 5.1(3)).
//
// Structural mutations the overlay cannot express — inserting between
// a node and a subset of its children (the FIB application's LMP
// reparenting of covered prefixes) or withdrawing an interior rule
// (children lift to the grandparent) — migrate eagerly: the logical
// state (counters, cached set, ledger) is extracted, the mutation is
// applied to the id space, and a fresh snapshot is built and
// reinjected.
//
// Rebuild migrates state, not behaviour: the cached set, all counters,
// the cost ledger, the round/phase counters and the peak-occupancy
// high-water mark are carried into the new snapshot, so the cost
// ledger is continuous across epochs and — the property the
// differential suite pins — serving any suffix after a rebuild yields
// exactly the costs and cache contents the overlay instance yields.
//
// Identity: MutableTC speaks stable node ids (tree.Dyn's id space,
// which survives rebuilds and is what traces, the FIB table and the
// engine reference); the embedded TC speaks the current snapshot's
// dense ids. Translation is one slice load per request, and the
// steady-state serve path between rebuilds still performs zero heap
// allocations.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tree"
)

// ovLeaf is the overlay record of one leaf inserted since the last
// rebuild: its stable id, its parent's dense snapshot id, its counter
// and cached state. A leaf's hval while cached is hA = cnt − α, hB = 1
// (it has no children — inserting under an overlay leaf rebuilds
// first), so no separate hval storage is needed.
type ovLeaf struct {
	node   tree.NodeID // stable id
	parent tree.NodeID // dense id of the snapshot parent
	cnt    int64
	cached bool
	dead   bool // deleted again before the next rebuild
	justEv bool // transient mark inside one applyEvict
}

// tcOverlay carries a TC's dynamic-topology state; nil on a static TC.
type tcOverlay struct {
	leaves   []ovLeaf
	idx      map[tree.NodeID]int32   // stable id -> index into leaves
	byParent map[tree.NodeID][]int32 // dense parent -> indices of its live overlay leaves
	nLive    int                     // live overlay leaves (cached or not)
	nCached  int                     // cached, live overlay leaves
	phNode   []tree.NodeID           // dense ids of tombstoned (phantom-pinned) snapshot nodes

	joinBuf []int32       // scratch: fetch joiners of the current applyFetch
	evBuf   []int32       // scratch: overlay evictions of the current applyEvict
	wfBuf   []tree.NodeID // scratch: wouldFetch for overlay-driven phase ends
}

func newOverlay() *tcOverlay {
	return &tcOverlay{
		idx:      make(map[tree.NodeID]int32),
		byParent: make(map[tree.NodeID][]int32),
	}
}

// collectJoiners gathers the live non-cached overlay leaves inside
// T(u) — their (non-cached) parents lie in P(u), so they belong to the
// fetched cap. Returns how many joined; fetchJoiners commits them.
// The scan is O(#overlay records), bounded by the rebuild threshold
// and skipped entirely when no live non-cached leaf exists (the
// common, overlay-empty case).
func (ov *tcOverlay) collectJoiners(a *TC, u tree.NodeID) int {
	ov.joinBuf = ov.joinBuf[:0]
	if ov.nLive == ov.nCached {
		return 0
	}
	for i := range ov.leaves {
		l := &ov.leaves[i]
		if !l.dead && !l.cached && a.t.IsAncestorOrSelf(u, l.parent) {
			ov.joinBuf = append(ov.joinBuf, int32(i))
		}
	}
	return len(ov.joinBuf)
}

// fetchJoiners marks the joiners of the current fetch cached. Fetching
// resets their counters, exactly as for snapshot nodes.
func (ov *tcOverlay) fetchJoiners() {
	for _, i := range ov.joinBuf {
		l := &ov.leaves[i]
		l.cached = true
		l.cnt = 0
		ov.nCached++
	}
}

// collectEvictions marks the live cached overlay leaves whose parent is
// in the evicted set and whose hval is non-negative (hA = cnt − α ≥ 0):
// they belong to H(r). Leaves with hA < 0 stay cached as singleton
// roots. Returns how many are marked; finalizeEvictions commits them
// after the bottom-up size bookkeeping consumed the marks.
func (ov *tcOverlay) collectEvictions(a *TC, inX []bool) int {
	ov.evBuf = ov.evBuf[:0]
	if ov.nCached == 0 {
		return 0
	}
	for i := range ov.leaves {
		l := &ov.leaves[i]
		if !l.dead && l.cached && inX[l.parent] && l.cnt >= a.cfg.Alpha {
			l.justEv = true
			ov.evBuf = append(ov.evBuf, int32(i))
		}
	}
	return len(ov.evBuf)
}

// evictedUnder returns how many overlay leaves under dense node w are
// being evicted by the current applyEvict.
func (ov *tcOverlay) evictedUnder(w tree.NodeID) int32 {
	var c int32
	for _, i := range ov.byParent[w] {
		if ov.leaves[i].justEv {
			c++
		}
	}
	return c
}

// finalizeEvictions commits the marked evictions: counters reset with
// the eviction, per the paper's semantics.
func (ov *tcOverlay) finalizeEvictions() {
	for _, i := range ov.evBuf {
		l := &ov.leaves[i]
		l.justEv = false
		l.cached = false
		l.cnt = 0
		ov.nCached--
	}
}

// cachedChildContrib returns Σ⁺ (hA, hB) over the live cached overlay
// children of dense node v (hA = cnt − α, hB = 1).
func (ov *tcOverlay) cachedChildContrib(a *TC, v tree.NodeID) (int64, int64) {
	var sa, sb int64
	for _, i := range ov.byParent[v] {
		l := &ov.leaves[i]
		if l.cached {
			if hA := l.cnt - a.cfg.Alpha; hA >= 0 {
				sa += hA
				sb++
			}
		}
	}
	return sa, sb
}

// cachedChildHA returns the Σ⁺hA part of cachedChildContrib.
func (ov *tcOverlay) cachedChildHA(a *TC, v tree.NodeID) int64 {
	sa, _ := ov.cachedChildContrib(a, v)
	return sa
}

// missingChildCnt returns Σ cnt over the live non-cached overlay
// children of dense node v (their caps are singletons, so cnt(P) = cnt).
func (ov *tcOverlay) missingChildCnt(v tree.NodeID) int64 {
	var c int64
	for _, i := range ov.byParent[v] {
		if l := &ov.leaves[i]; !l.cached {
			c += l.cnt
		}
	}
	return c
}

// filterPhantoms drops tombstoned nodes from an observer-facing member
// list (observer paths may allocate).
func (ov *tcOverlay) filterPhantoms(members []tree.NodeID) []tree.NodeID {
	if len(ov.phNode) == 0 {
		return members
	}
	ph := make(map[tree.NodeID]bool, len(ov.phNode))
	for _, v := range ov.phNode {
		ph[v] = true
	}
	out := members[:0]
	for _, v := range members {
		if !ph[v] {
			out = append(out, v)
		}
	}
	return out
}

// afterFlush re-establishes the overlay's view after a full cache flush
// and lazy epoch reset (phase end or Reset): the snapshot's phase-start
// aggregates describe the frozen shape, so every tombstone subtracts
// itself from its ancestors' caps again (and is re-pinned as cached),
// and every live overlay leaf re-adds itself (flushed to non-cached,
// counter zero, like every other node).
func (ov *tcOverlay) afterFlush(a *TC) {
	if ov.nLive == 0 && len(ov.phNode) == 0 {
		return
	}
	a.cache.InstallMembers(ov.phNode)
	for _, v := range ov.phNode {
		p := a.t.Parent(v) // never None: the root is permanent
		a.posRootPathAdd(a.t.HeavySlot(p), a.cfg.Alpha, -1)
	}
	for i := range ov.leaves {
		l := &ov.leaves[i]
		if l.dead {
			continue
		}
		l.cached = false
		l.cnt = 0
		a.posRootPathAdd(a.t.HeavySlot(l.parent), -a.cfg.Alpha, 1)
	}
	ov.nCached = 0
}

// removeFromParent unlinks overlay leaf index i from its parent's list.
func (ov *tcOverlay) removeFromParent(parent tree.NodeID, i int32) {
	lst := ov.byParent[parent]
	for j, k := range lst {
		if k == i {
			lst[j] = lst[len(lst)-1]
			ov.byParent[parent] = lst[:len(lst)-1]
			return
		}
	}
}

// settleRemoveContrib removes the hval contribution (dA0 ≥ 0, dB0) of a
// withdrawn child from the cached chain starting at slot g: each node
// absorbs the (non-positive) delta and forwards the change of its own
// contribution until the delta vanishes or the cached-tree root is
// reached. Deltas only shrink hvals, so no eviction can trigger.
func (a *TC) settleRemoveContrib(g int32, dA0, dB0 int64) {
	dA, dB := -dA0, -dB0
	for {
		hA, hB := a.negReadSlot(g)
		newA, newB := hA+dA, hB+dB
		a.negAssign(g, newA, newB)
		var oldCA, oldCB, newCA, newCB int64
		if hA >= 0 {
			oldCA, oldCB = hA, hB
		}
		if newA >= 0 {
			newCA, newCB = newA, newB
		}
		dA, dB = newCA-oldCA, newCB-oldCB
		if dA == 0 && dB == 0 {
			return
		}
		p := a.t.Parent(a.t.NodeAtHeavySlot(g))
		if p == tree.None || !a.cache.Contains(p) {
			return // cached-tree root absorbed the change
		}
		g = a.t.HeavySlot(p)
	}
}

// resolveSaturation re-runs the topmost-saturation query on the root
// path of slot g and applies the resulting fetch, if any. Withdrawals
// shrink cap sizes (key += α), which can leave a cap saturated between
// rounds; TC's invariants (and the batched serve path) require such
// caps to be applied immediately.
func (a *TC) resolveSaturation(g int32) {
	if top := a.posRootPathBump(g, 0); top >= 0 {
		key, s := a.posRead(top)
		a.applyFetch(a.t.NodeAtHeavySlot(top), top, key+int64(s)*a.cfg.Alpha, s)
	}
}

// resolveEviction evicts the cap H(r) of the cached tree containing
// dense node v if its root r has a non-negative hval: a lift that
// removed a negative link from a cached chain can leave H(r)
// saturated between rounds, which TC's invariants (Lemma 5.1) forbid
// and the negative serve path's climbs assume.
func (a *TC) resolveEviction(v tree.NodeID) {
	r := v
	for p := a.t.Parent(r); p != tree.None && a.cache.Contains(p); p = a.t.Parent(r) {
		r = p
	}
	if hA, _ := a.negRead(r); hA >= 0 {
		a.applyEvict(r)
	}
}

// stableObserver translates the embedded TC's event stream from dense
// snapshot ids to stable ids, so an attached Observer sees ONE
// coherent id space across epoch rebuilds. Dense ids are < the
// snapshot length; overlay events (which already fire with stable ids,
// e.g. the wouldFetch of an overlay-driven phase end) carry ids ≥ it —
// inserted after the last rebuild, their ids exceed every id the
// snapshot compacted — so the two ranges never collide. Translation
// buffers are wrapper-owned (observer paths may allocate; the
// zero-alloc guarantees hold for observer-free instances).
type stableObserver struct {
	dyn   *tree.Dyn
	inner Observer
	bufA  []tree.NodeID
	bufB  []tree.NodeID
}

func (o *stableObserver) stable(v tree.NodeID) tree.NodeID {
	if int(v) < o.dyn.Snapshot().Len() {
		return o.dyn.Stable(v)
	}
	return v // overlay event: already a stable id
}

func (o *stableObserver) translate(dst *[]tree.NodeID, x []tree.NodeID) []tree.NodeID {
	b := (*dst)[:0]
	for _, v := range x {
		b = append(b, o.stable(v))
	}
	*dst = b
	return b
}

func (o *stableObserver) OnRequest(round int64, v tree.NodeID, kind trace.Kind, paid bool) {
	o.inner.OnRequest(round, o.stable(v), kind, paid)
}

func (o *stableObserver) OnApply(round int64, x []tree.NodeID, positive bool) {
	o.inner.OnApply(round, o.translate(&o.bufA, x), positive)
}

func (o *stableObserver) OnPhaseEnd(round int64, evicted, wouldFetch []tree.NodeID) {
	o.inner.OnPhaseEnd(round, o.translate(&o.bufA, evicted), o.translate(&o.bufB, wouldFetch))
}

// ---------------------------------------------------------------------------
// MutableTC.
// ---------------------------------------------------------------------------

// MutableConfig parameterises a MutableTC.
type MutableConfig struct {
	Config
	// RebuildFrac is the pending-mutation fraction of the snapshot size
	// that triggers an amortized state-migrating rebuild (default 1/8):
	// a rebuild costs O(n log n), so the amortized cost per mutation is
	// O(log n / RebuildFrac).
	RebuildFrac float64
}

// MutableTC is the dynamic-topology TC: a live instance that accepts
// Insert/Delete mutations while serving. It speaks stable node ids
// (tree.Dyn); see the package comment of this file for the overlay /
// rebuild lifecycle. Like TC it is not safe for concurrent use — the
// engine serializes mutations through each shard's single-writer
// worker.
type MutableTC struct {
	tc  *TC
	dyn *tree.Dyn
	cfg MutableConfig
	obs *stableObserver // non-nil iff cfg.Observer is; shared across rebuilds

	rebuilds int64

	// Export bookkeeping (ExportChanges): exports numbers the exports,
	// fullExports counts those that re-derived every entry, and codec
	// is the snapshot codec's per-instance encoder state.
	exports     uint64
	fullExports int64
	codec       any

	// Scratch, persistent across operations.
	dbuf    trace.Trace   // dense-id request buffer of ServeBatch
	cntH    []int64       // counter sweep output by heavy slot
	cntS    []int64       // migration: counter by stable id (live ids only)
	cachedS []bool        // migration: cached flag by stable id (live ids only)
	cntP    []int64       // injection: cnt(P(v)) by dense id
	szP     []int32       // injection: |P(v)| by dense id
	hAv     []int64       // injection: hA by dense id
	hBv     []int64       // injection: hB by dense id
	memBuf  []tree.NodeID // member scratch
	state   MutableState  // ExportState's result, reused across captures
	changed []tree.NodeID // ExportChanges' changed list, reused across captures
}

// NewMutable returns a dynamic-topology TC over initial topology t.
// Configuration rules are TC's; RebuildFrac defaults to 1/8. An
// attached Observer receives stable node ids (coherent across epoch
// rebuilds).
func NewMutable(t *tree.Tree, cfg MutableConfig) *MutableTC {
	if cfg.RebuildFrac <= 0 {
		cfg.RebuildFrac = 0.125
	}
	m := &MutableTC{dyn: tree.NewDyn(t), cfg: cfg}
	m.tc = m.newInner(t)
	return m
}

// newInner builds the embedded TC over snapshot t, with the observer
// wrapped to translate dense ids back to stable ids.
func (m *MutableTC) newInner(t *tree.Tree) *TC {
	inner := m.cfg.Config
	if inner.Observer != nil {
		if m.obs == nil {
			m.obs = &stableObserver{dyn: m.dyn, inner: inner.Observer}
		}
		inner.Observer = m.obs
	}
	tc := New(t, inner)
	tc.ov = newOverlay()
	var chg *changeSet
	if m.tc != nil {
		chg = m.tc.chg // a rebuild: reuse the buffers, re-derive everything
	}
	tc.chg = newChangeSet(chg, t.Len())
	return tc
}

// Name implements the sim.Algorithm interface.
func (m *MutableTC) Name() string { return "TC" }

// Snapshot returns the current immutable snapshot (dense ids).
func (m *MutableTC) Snapshot() *tree.Tree { return m.tc.t }

// Dyn returns the topology handle (stable ids).
func (m *MutableTC) Dyn() *tree.Dyn { return m.dyn }

// Epoch returns the current topology epoch.
func (m *MutableTC) Epoch() int64 { return m.dyn.Epoch() }

// Pending returns the number of mutations absorbed by the overlay
// since the last rebuild.
func (m *MutableTC) Pending() int { return m.dyn.Pending() }

// Rebuilds returns how many state-migrating rebuilds have run.
func (m *MutableTC) Rebuilds() int64 { return m.rebuilds }

// Alpha returns α.
func (m *MutableTC) Alpha() int64 { return m.cfg.Alpha }

// Capacity returns k_ONL.
func (m *MutableTC) Capacity() int { return m.cfg.Capacity }

// Ledger returns the accumulated costs (continuous across rebuilds).
func (m *MutableTC) Ledger() cache.Ledger { return m.tc.Ledger() }

// Round returns the number of requests served.
func (m *MutableTC) Round() int64 { return m.tc.Round() }

// Phase returns the current 0-based phase index.
func (m *MutableTC) Phase() int64 { return m.tc.Phase() }

// PhaseRounds returns the number of requests served in the current
// phase.
func (m *MutableTC) PhaseRounds() int64 { return m.tc.rounds }

// Codec returns what a codec stored with SetCodec, or nil.
// internal/snapshot keeps the encoding of the instance's last capture
// here, so every capture of the instance, whoever asks for it, patches
// that one cache. ImportState clears it.
func (m *MutableTC) Codec() any { return m.codec }

// SetCodec stores a codec's per-instance state (see Codec).
func (m *MutableTC) SetCodec(c any) { m.codec = c }

// CacheLen returns the live cache occupancy.
func (m *MutableTC) CacheLen() int { return m.tc.effCacheLen() }

// MaxCacheLen returns the peak live occupancy since the last Reset
// (carried across rebuilds).
func (m *MutableTC) MaxCacheLen() int { return m.tc.MaxCacheLen() }

// Cached reports whether live stable node v is currently cached.
func (m *MutableTC) Cached(v tree.NodeID) bool {
	if !m.dyn.Live(v) {
		return false
	}
	if g := m.dyn.Dense(v); g != tree.None {
		return m.tc.cache.Contains(g)
	}
	return m.tc.ov.leaves[m.tc.ov.idx[v]].cached
}

// Counter returns live stable node v's current counter.
func (m *MutableTC) Counter(v tree.NodeID) int64 {
	if !m.dyn.Live(v) {
		return 0
	}
	if g := m.dyn.Dense(v); g != tree.None {
		return m.tc.Counter(g)
	}
	return m.tc.ov.leaves[m.tc.ov.idx[v]].cnt
}

// CacheMembers returns the cached live nodes as ascending stable ids.
func (m *MutableTC) CacheMembers() []tree.NodeID {
	return m.AppendCacheMembers(nil)
}

// AppendCacheMembers appends the cached live nodes (ascending stable
// ids) to dst and returns it.
func (m *MutableTC) AppendCacheMembers(dst []tree.NodeID) []tree.NodeID {
	base := len(dst)
	m.memBuf = m.tc.AppendCacheMembers(m.memBuf[:0])
	for _, g := range m.memBuf {
		if s := m.dyn.Stable(g); m.dyn.Live(s) { // phantoms are dead
			dst = append(dst, s)
		}
	}
	ov := m.tc.ov
	for i := range ov.leaves {
		if l := &ov.leaves[i]; !l.dead && l.cached {
			dst = append(dst, l.node)
		}
	}
	s := dst[base:]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return dst
}

// CacheRoots returns the roots of the maximal cached subtrees of the
// live topology as ascending stable ids.
func (m *MutableTC) CacheRoots() []tree.NodeID {
	var out []tree.NodeID
	m.memBuf = m.tc.cache.AppendRoots(m.memBuf[:0])
	for _, g := range m.memBuf {
		if s := m.dyn.Stable(g); m.dyn.Live(s) {
			out = append(out, s)
		}
	}
	ov := m.tc.ov
	for i := range ov.leaves {
		if l := &ov.leaves[i]; !l.dead && l.cached && !m.tc.cache.Contains(l.parent) {
			out = append(out, l.node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset restores the initial state of the CURRENT topology: empty
// cache, zero costs, phase 0. The topology itself (and the epoch) is
// untouched.
func (m *MutableTC) Reset() { m.tc.Reset() }

// Serve processes one request (stable node id) and returns the serving
// and movement cost of the round. Requests to withdrawn ids are
// silently free no-ops: the replayed feed may still reference a prefix
// a concurrent withdrawal removed, and a from-scratch instance on the
// final topology must treat the suffix identically.
func (m *MutableTC) Serve(req trace.Request) (serveCost, moveCost int64) {
	v := req.Node
	if !m.dyn.Live(v) {
		return 0, 0
	}
	if g := m.dyn.Dense(v); g != tree.None {
		req.Node = g
		return m.tc.Serve(req)
	}
	return m.ovServe(v, req.Kind)
}

// ServeBatch serves a whole batch with semantics identical to calling
// Serve per element, in order. Maximal spans of snapshot-resident
// requests are translated in place and handed to TC.ServeBatch, so the
// run-length coalescing of the batched serve core survives topology
// churn; overlay-resident requests are served individually.
func (m *MutableTC) ServeBatch(batch trace.Trace) (serveCost, moveCost int64) {
	m.dbuf = m.dbuf[:0]
	flush := func() {
		if len(m.dbuf) > 0 {
			s, mv := m.tc.ServeBatch(m.dbuf)
			serveCost += s
			moveCost += mv
			m.dbuf = m.dbuf[:0]
		}
	}
	for _, req := range batch {
		v := req.Node
		if !m.dyn.Live(v) {
			continue
		}
		if g := m.dyn.Dense(v); g != tree.None {
			m.dbuf = append(m.dbuf, trace.Request{Node: g, Kind: req.Kind})
			continue
		}
		flush()
		s, mv := m.ovServe(v, req.Kind)
		serveCost += s
		moveCost += mv
	}
	flush()
	return serveCost, moveCost
}

// ovServe serves a request to overlay leaf v (stable id).
func (m *MutableTC) ovServe(v tree.NodeID, kind trace.Kind) (int64, int64) {
	a := m.tc
	l := &a.ov.leaves[a.ov.idx[v]]
	a.round++
	a.rounds++
	paid := (kind == trace.Positive && !l.cached) || (kind == trace.Negative && l.cached)
	if a.cfg.Observer != nil {
		// Overlay nodes have no dense id yet; observers see the stable id.
		a.cfg.Observer.OnRequest(a.round, v, kind, paid)
	}
	if !paid {
		return 0, 0
	}
	a.led.PayServe()
	moveBefore := a.led.Move
	if kind == trace.Positive {
		m.ovPositive(l)
	} else {
		m.ovNegative(l)
	}
	return 1, a.led.Move - moveBefore
}

// ovPositive handles a paid positive request to non-cached overlay
// leaf v: the counter bump lands on the overlay record and on every
// snapshot ancestor's prefix key; the topmost saturated cap (a
// snapshot ancestor's, or the leaf's own singleton {v}) is applied.
func (m *MutableTC) ovPositive(l *ovLeaf) {
	a := m.tc
	if a.cache.Contains(l.parent) {
		panic("core: non-cached overlay leaf below a cached parent (subforest invariant breach)")
	}
	l.cnt++
	gp := a.t.HeavySlot(l.parent)
	if top := a.posRootPathBump(gp, 1); top >= 0 {
		key, s := a.posRead(top)
		a.applyFetch(a.t.NodeAtHeavySlot(top), top, key+int64(s)*a.cfg.Alpha, s)
		return
	}
	if l.cnt < a.cfg.Alpha {
		return
	}
	// P(v) = {v} is saturated and no ancestor cap is: fetch v alone.
	if a.effCacheLen()+1 > a.cfg.Capacity {
		a.ov.wfBuf = append(a.ov.wfBuf[:0], l.node)
		a.endPhase(a.ov.wfBuf)
		return
	}
	c := l.cnt
	l.cached = true
	l.cnt = 0
	a.ov.nCached++
	a.led.PayFetch(1)
	if n := a.effCacheLen(); n > a.peak {
		a.peak = n
	}
	// Ancestors lose {v} from their caps: cnt −= c, size −= 1.
	a.posRootPathAdd(gp, a.cfg.Alpha-c, -1)
}

// ovNegative handles a paid negative request to cached overlay leaf v,
// mirroring serveNegative: the bump is absorbed by hA(v) = cnt − α;
// crossing −1 → 0 propagates the hB contribution, staying ≥ 0
// propagates +1 along the cached chain, and a saturated singleton root
// evicts itself.
func (m *MutableTC) ovNegative(l *ovLeaf) {
	a := m.tc
	l.cnt++
	hA := l.cnt - a.cfg.Alpha
	if hA < 0 {
		return
	}
	gp := a.t.HeavySlot(l.parent)
	if !a.cache.Contains(l.parent) {
		// v roots its own cached tree and H(v) = {v} is saturated.
		a.led.PayEvict(1)
		l.cached = false
		l.cnt = 0
		a.ov.nCached--
		// Ancestors gain one non-cached descendant with a reset counter.
		a.posRootPathAdd(gp, -a.cfg.Alpha, 1)
		return
	}
	if hA == 0 {
		a.negPropagateB(gp, 1) // flip −1 → 0: contribution (0,0) → (0,1)
		return
	}
	if r := a.negPropagateA(gp); r != tree.None {
		a.applyEvict(r)
	}
}

// ---------------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------------

// Insert attaches a fresh rule under live node parent and returns its
// stable id. The new leaf starts with a zero counter; if parent is
// cached the leaf enters the cache with it (the covering rule's
// more-specific child must be pushed to the switch, one α install), if
// that would overflow the capacity the phase ends first, exactly like
// an overflowing fetch.
func (m *MutableTC) Insert(parent tree.NodeID) (tree.NodeID, error) {
	if err := m.checkInsert(parent); err != nil {
		return tree.None, err
	}
	if m.dyn.Dense(parent) == tree.None {
		// The parent is itself an overlay leaf; promote it into the
		// snapshot first so the new leaf can hang off heavy-path
		// structures.
		m.Rebuild()
	}
	v, err := m.dyn.Insert(parent)
	if err != nil {
		return tree.None, err
	}
	// No snapshot entry changes: the leaf is an overlay entry, re-listed
	// on every export, and its parent's counter stays (a non-cached leaf
	// joins the parent's cap with count 0, a cached one has hA < 0).
	a := m.tc
	ov := a.ov
	gp := m.dyn.Dense(parent)
	rec := ovLeaf{node: v, parent: gp}
	if a.cache.Contains(gp) {
		if a.effCacheLen()+1 > a.cfg.Capacity {
			a.endPhase(ov.wfBuf[:0]) // flush; the parent is non-cached now
		} else {
			rec.cached = true
			ov.nCached++
			a.led.PayFetch(1)
		}
	}
	i := int32(len(ov.leaves))
	ov.leaves = append(ov.leaves, rec)
	ov.idx[v] = i
	ov.byParent[gp] = append(ov.byParent[gp], i)
	ov.nLive++
	if rec.cached {
		if n := a.effCacheLen(); n > a.peak {
			a.peak = n
		}
	} else {
		// Every ancestor's cap gains one non-cached zero-counter node.
		a.posRootPathAdd(a.t.HeavySlot(gp), -a.cfg.Alpha, 1)
	}
	m.maybeRebuild()
	return v, nil
}

// checkInsert fails, before anything changes, an insertion under a
// parent that is not live or into a full id space.
func (m *MutableTC) checkInsert(parent tree.NodeID) error {
	if !m.dyn.Live(parent) {
		return fmt.Errorf("core: insert under dead or unknown node %d", parent)
	}
	if m.dyn.Full() {
		return fmt.Errorf("core: insert under %d: %w", parent, tree.ErrIDSpaceFull)
	}
	return nil
}

// InsertBetween inserts a fresh rule under live node parent and moves
// the given live children of parent below it (LMP reparenting of
// covered prefixes). Interior insertion is structural: the instance
// migrates through an immediate rebuild.
func (m *MutableTC) InsertBetween(parent tree.NodeID, adopt []tree.NodeID) (tree.NodeID, error) {
	if len(adopt) == 0 {
		return m.Insert(parent)
	}
	if err := m.checkInsert(parent); err != nil {
		return tree.None, err
	}
	for _, c := range adopt {
		if !m.dyn.Live(c) || m.dyn.Parent(c) != parent {
			return tree.None, fmt.Errorf("core: adopted node %d is not a live child of %d", c, parent)
		}
	}
	parentCached := m.Cached(parent)
	if parentCached && m.tc.effCacheLen()+1 > m.cfg.Capacity {
		m.tc.endPhase(m.tc.ov.wfBuf[:0])
		parentCached = false
	}
	m.flushState()
	v, err := m.dyn.InsertBetween(parent, adopt)
	if err != nil {
		panic("core: validated InsertBetween failed: " + err.Error())
	}
	m.cntS = append(m.cntS, 0)
	m.cachedS = append(m.cachedS, parentCached)
	if parentCached {
		m.tc.led.PayFetch(1)
	}
	m.installSnapshot(m.dyn.Rebuild())
	if parentCached {
		if n := m.tc.effCacheLen(); n > m.tc.peak {
			m.tc.peak = n
		}
	}
	return v, nil
}

// Delete withdraws live rule v (the root is permanent). A leaf
// withdrawal is absorbed by the overlay: a non-cached leaf settles its
// counter into its parent, a cached leaf is force-evicted (one α
// remove message) with its hval contribution unwound from the cached
// chain, and the node is tombstoned until the next rebuild. An
// interior withdrawal (children lift to the grandparent) is structural
// and migrates through an immediate rebuild.
func (m *MutableTC) Delete(v tree.NodeID) error {
	if !m.dyn.Live(v) {
		return fmt.Errorf("core: delete of dead or unknown node %d", v)
	}
	if v == 0 {
		return fmt.Errorf("core: the root cannot be deleted")
	}
	if m.dyn.LiveChildren(v) > 0 {
		return m.deleteLift(v)
	}
	a := m.tc
	ov := a.ov
	alpha := a.cfg.Alpha
	if g := m.dyn.Dense(v); g == tree.None {
		// Overlay leaf: undo its overlay record.
		i := ov.idx[v]
		l := &ov.leaves[i]
		a.chg.mark(l.parent) // a non-cached leaf's counter settles into it
		gp := a.t.HeavySlot(l.parent)
		wasCached := l.cached
		if wasCached {
			if hA := l.cnt - alpha; hA >= 0 && a.cache.Contains(l.parent) {
				a.settleRemoveContrib(gp, hA, 1)
			}
			a.led.PayEvict(1)
			ov.nCached--
		}
		l.dead = true
		l.cached = false
		l.cnt = 0
		ov.nLive--
		delete(ov.idx, v)
		ov.removeFromParent(l.parent, i)
		if err := m.dyn.Delete(v); err != nil {
			panic("core: validated Delete failed: " + err.Error())
		}
		if !wasCached {
			// cnt(v) settles into the parent: the sum over every
			// enclosing cap is unchanged, each size shrinks by one —
			// which can leave an enclosing cap saturated.
			a.posRootPathAdd(gp, alpha, -1)
			a.resolveSaturation(gp)
		}
	} else {
		// Snapshot node that is a leaf of the live topology (its
		// snapshot descendants, if any, are tombstones already).
		a.chg.mark(g)             // a tombstone has no counter
		a.chg.mark(a.t.Parent(g)) // takes a non-cached g's counter; never None (the root is permanent)
		gs := a.t.HeavySlot(g)
		if a.cache.Contains(g) {
			hA, hB := a.negRead(g)
			if p := a.t.Parent(g); hA >= 0 && p != tree.None && a.cache.Contains(p) {
				a.settleRemoveContrib(a.t.HeavySlot(p), hA, hB)
			}
			a.led.PayEvict(1)
			a.negAssign(gs, notCachedHA, 0) // sentinel: hval walks exclude the tombstone
			// The node stays pinned in the membership bitmap: a phantom.
			ov.phNode = append(ov.phNode, g)
		} else {
			p := a.t.Parent(g) // never None: the root is permanent
			gp := a.t.HeavySlot(p)
			a.posRootPathAdd(gp, alpha, -1)
			ov.wfBuf = append(ov.wfBuf[:0], g)
			a.cache.InstallMembers(ov.wfBuf) // pin as phantom-cached
			ov.phNode = append(ov.phNode, g)
			a.resolveSaturation(gp)
		}
		if err := m.dyn.Delete(v); err != nil {
			panic("core: validated Delete failed: " + err.Error())
		}
	}
	m.maybeRebuild()
	return nil
}

// deleteLift withdraws interior rule v, lifting its children to v's
// parent, via an eager state-migrating rebuild.
func (m *MutableTC) deleteLift(v tree.NodeID) error {
	p := m.dyn.Parent(v)
	m.flushState()
	cached := m.cachedS[v]
	if cached {
		m.tc.led.PayEvict(1) // forced eviction: the counter resets with it
	} else {
		m.cntS[p] += m.cntS[v] // settle into the parent
	}
	lifted, err := m.dyn.DeleteLift(v)
	if err != nil {
		panic("core: validated DeleteLift failed: " + err.Error())
	}
	m.installSnapshot(m.dyn.Rebuild())
	if !cached {
		// The caps enclosing p (non-cached, like v) shrank; restore the
		// Lemma 5.1(3) invariant.
		m.tc.resolveSaturation(m.tc.t.HeavySlot(m.dyn.Dense(p)))
		return nil
	}
	// No cap changed: v and its subtree were cached. But v, when hA(v)
	// < 0, absorbed its children's hval contributions. Lifted, they
	// reach p's cached chain, or each roots a cached tree of its own
	// under a non-cached p, and a cached-tree root whose hval turned
	// non-negative is a saturated eviction (Lemma 5.1), applied now.
	if m.Cached(p) {
		m.tc.resolveEviction(m.dyn.Dense(p))
		return nil
	}
	for _, c := range lifted {
		if m.Cached(c) {
			m.tc.resolveEviction(m.dyn.Dense(c))
		}
	}
	return nil
}

// Apply replays one recorded mutation event. An insertion's Node must
// be the next sequential stable id (or tree.None to allocate).
func (m *MutableTC) Apply(mut trace.Mutation) error {
	switch mut.Kind {
	case trace.MutInsert:
		if mut.Node != tree.None && mut.Node != m.dyn.NextID() {
			return fmt.Errorf("core: insertion id %d does not match next stable id %d", mut.Node, m.dyn.NextID())
		}
		_, err := m.Insert(mut.Parent)
		return err
	case trace.MutDelete:
		return m.Delete(mut.Node)
	default:
		return fmt.Errorf("core: unknown mutation kind %d", mut.Kind)
	}
}

// ApplyTopology replays a batch of recorded mutation events, stopping
// at the first invalid one.
func (m *MutableTC) ApplyTopology(muts []trace.Mutation) error {
	for _, mut := range muts {
		if err := m.Apply(mut); err != nil {
			return err
		}
	}
	return nil
}

// ServeChurn replays a dynamic-topology trace (requests interleaved
// with mutation events) and returns the total serving and movement
// cost, mutation-induced rule messages included.
func (m *MutableTC) ServeChurn(ct trace.ChurnTrace) (serveCost, moveCost int64, err error) {
	led := m.tc.led
	for _, op := range ct {
		if op.IsMut {
			if err := m.Apply(op.Mut); err != nil {
				return 0, 0, err
			}
			continue
		}
		m.Serve(op.Req)
	}
	after := m.tc.led
	return after.Serve - led.Serve, after.Move - led.Move, nil
}

// ---------------------------------------------------------------------------
// Rebuild: amortized state migration into a fresh snapshot.
// ---------------------------------------------------------------------------

// maybeRebuild triggers the amortized rebuild once pending mutations
// reach RebuildFrac of the snapshot size (at least one — tiny trees
// rebuild per mutation, which is still O(n log n) total for n ops).
func (m *MutableTC) maybeRebuild() {
	threshold := int(m.cfg.RebuildFrac * float64(m.tc.t.Len()))
	if threshold < 1 {
		threshold = 1
	}
	if m.dyn.Pending() >= threshold || m.dyn.Structural() {
		m.Rebuild()
	}
}

// Rebuild forces the state-migrating rebuild now: the logical state
// (cached set, counters, ledger, round/phase/peak) is extracted, the
// pending mutations become a fresh snapshot at epoch+1, and the state
// is reinjected. Serving any suffix afterwards produces exactly the
// costs and cache contents the overlay instance would have produced.
func (m *MutableTC) Rebuild() {
	m.flushState()
	m.installSnapshot(m.dyn.Rebuild())
}

// flushState extracts the logical state — counter and cached flag of
// every live node — into the stable-id-indexed migration buffers, from
// one counter sweep over the snapshot plus the overlay records. Only
// live ids' entries are written (and read): the cost is independent of
// how many ids were ever withdrawn, and the buffers grow geometrically
// with the id space.
func (m *MutableTC) flushState() {
	ids := m.dyn.NumIDs()
	m.cntS = resize(m.cntS, ids)
	m.cachedS = resize(m.cachedS, ids)
	a := m.tc
	cnt := m.sweepCounters()
	for g := 0; g < a.t.Len(); g++ {
		v := tree.NodeID(g)
		if s := m.dyn.Stable(v); m.dyn.Live(s) {
			m.cntS[s] = cnt[a.t.HeavySlot(v)]
			m.cachedS[s] = a.cache.Contains(v)
		}
	}
	for i := range a.ov.leaves {
		if l := &a.ov.leaves[i]; !l.dead {
			m.cntS[l.node], m.cachedS[l.node] = l.cnt, l.cached
		}
	}
}

// installSnapshot builds a fresh TC over the new snapshot and injects
// the migrated state via the shared inject pass (the rebuild case has
// an empty overlay and no phantoms).
func (m *MutableTC) installSnapshot(t *tree.Tree) {
	old := m.tc
	tcNew := m.newInner(t)
	tcNew.led = old.led
	tcNew.round = old.round
	tcNew.rounds = old.rounds
	tcNew.phase = old.phase
	tcNew.peak = old.peak
	m.inject(tcNew, t, nil)
	m.tc = tcNew
	m.rebuilds++
}

// inject materializes logical state into tcNew over snapshot t: cache
// membership wholesale (the cached-boundary revalidation lives in
// cache.InstallMembers), then one bottom-up pass deriving the positive
// aggregates (cnt(P), |P|) for non-cached nodes and the hvals for
// cached nodes from the stable-indexed migration buffers (m.cntS,
// m.cachedS). The pass also folds in whatever overlay tcNew.ov already
// carries (state restore reinstalls inserted leaves before injecting;
// the rebuild path injects into an empty overlay) and treats the
// phantom set ph (dense-indexed, nil when empty) as pinned-cached
// tombstones: membership without hval (the sentinel keeps them out of
// every hval walk) and exclusion from every enclosing cap.
func (m *MutableTC) inject(tcNew *TC, t *tree.Tree, ph []bool) {
	n := t.Len()
	// Independent capacity guards: size-class rounding differs per
	// element type, so one slice's capacity says nothing about the
	// others'.
	if cap(m.cntP) < n {
		m.cntP = make([]int64, n)
	}
	if cap(m.szP) < n {
		m.szP = make([]int32, n)
	}
	if cap(m.hAv) < n {
		m.hAv = make([]int64, n)
	}
	if cap(m.hBv) < n {
		m.hBv = make([]int64, n)
	}
	m.cntP, m.szP = m.cntP[:n], m.szP[:n]
	m.hAv, m.hBv = m.hAv[:n], m.hBv[:n]
	m.memBuf = m.memBuf[:0]
	for g := 0; g < n; g++ {
		if (ph != nil && ph[g]) || m.cachedS[m.dyn.Stable(tree.NodeID(g))] {
			m.memBuf = append(m.memBuf, tree.NodeID(g))
		}
	}
	tcNew.cache.InstallMembers(m.memBuf)
	ov := tcNew.ov
	hasOv := ov.nLive > 0
	alpha := m.cfg.Alpha
	pre := t.Preorder()
	for i := n - 1; i >= 0; i-- {
		v := pre[i]
		if ph != nil && ph[v] {
			// Tombstone: pinned in the membership bitmap, sentinel hval
			// (hAv < 0 also keeps it out of the parent's cached sum),
			// and no cap contribution.
			m.hAv[v], m.hBv[v] = notCachedHA, 0
			m.cntP[v], m.szP[v] = 0, 0
			tcNew.negAssign(t.HeavySlot(v), notCachedHA, 0)
			continue
		}
		s := m.dyn.Stable(v)
		cnt := m.cntS[s]
		if m.cachedS[s] {
			var sa, sb int64
			for _, c := range t.Children(v) {
				if m.cachedS[m.dyn.Stable(c)] && m.hAv[c] >= 0 {
					sa += m.hAv[c]
					sb += m.hBv[c]
				}
			}
			if hasOv {
				oa, ob := ov.cachedChildContrib(tcNew, v)
				sa += oa
				sb += ob
			}
			hA, hB := cnt-alpha+sa, 1+sb
			m.hAv[v], m.hBv[v] = hA, hB
			tcNew.negAssign(t.HeavySlot(v), hA, hB)
		} else {
			cp, sp := cnt, int32(1)
			for _, c := range t.Children(v) {
				if ph != nil && ph[c] {
					continue
				}
				if !m.cachedS[m.dyn.Stable(c)] {
					cp += m.cntP[c]
					sp += m.szP[c]
				}
			}
			if hasOv {
				for _, li := range ov.byParent[v] {
					if l := &ov.leaves[li]; !l.dead && !l.cached {
						cp += l.cnt
						sp++
					}
				}
			}
			m.cntP[v], m.szP[v] = cp, sp
			tcNew.posAssign(t.HeavySlot(v), cp-alpha*int64(sp), sp)
		}
	}
}
