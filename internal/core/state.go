// State export/import: the full observable algorithm state of a
// MutableTC as a plain value, and its reconstruction into a live
// instance.
//
// MutableState is the logical state the paper's algorithm is a
// deterministic function of: the stable-id topology (parents, live
// flags, snapshot residency), per-node counters, the cached set, the
// cost ledger and the round/phase/peak cursors. Everything else a TC
// holds — the positive/negative lazy aggregates, the heavy-path
// segment skeletons, the overlay's derived sums — is a pure function
// of this state and is rematerialized on import by the same bottom-up
// injection pass the amortized rebuild uses (inject), so a restored
// instance serves any suffix exactly like the captured one.
//
// internal/snapshot wraps this in a versioned, checksummed binary
// codec; this file deliberately knows nothing about bytes.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/tree"
)

// NodeState is the state of one present stable id: a node of the
// current dense snapshot (live, or tombstoned since the last rebuild)
// or a live overlay leaf inserted since then.
type NodeState struct {
	ID     tree.NodeID // stable id
	Parent tree.NodeID // stable parent (None for the root)
	Cnt    int64       // counter (live nodes; zero otherwise)
	Live   bool        // alive in the current topology
	InSnap bool        // resident in the current dense snapshot
	Cached bool        // cached flag (live nodes; false otherwise)
}

// MutableState is the complete observable state of a MutableTC. Nodes
// lists the present stable ids in ascending order: every snapshot-
// resident id (live or tombstoned), then the live overlay leaves,
// whose ids exceed every snapshot id (they were inserted after the
// last rebuild). Every other id below NextID was withdrawn and carries
// no state, but stays part of the id space: stable ids are never
// reused, so NextID keeps the next insertion id identical after a
// restore.
type MutableState struct {
	NextID int         // size of the stable id space (present + withdrawn)
	Nodes  []NodeState // present ids, ascending

	Epoch   int64 // topology epoch of the current snapshot
	Pending int   // overlay mutations since the last rebuild

	Led         cache.Ledger
	Round       int64 // requests served
	PhaseRounds int64 // rounds within the current phase (diagnostics)
	Phase       int64 // completed phases
	Peak        int   // high-water cache occupancy
}

// ExportState captures the instance's full observable state: the
// dense snapshot in dense-id order (ascending stable order by
// construction), then the live overlay leaves in insertion order. The
// returned state is owned by m and overwritten by m's next
// ExportState, ExportChanges or ImportState call; nothing else m does
// touches it, and callers must not modify it. See ExportChanges for
// what an export costs.
func (m *MutableTC) ExportState() *MutableState {
	st, _ := m.ExportChanges()
	return st
}

// Changes relates an export to the instance's previous one, so a codec
// that kept the previous export's encoding re-encodes only what
// changed.
type Changes struct {
	// Seq numbers the instance's exports: 1 for the first since it was
	// built or last imported a state, one more per ExportState or
	// ExportChanges call. Changed is relative to export Seq−1, so a
	// codec that did not see that export cannot patch.
	Seq uint64
	// Full reports that every entry was re-derived: the first export,
	// and any after a phase end, Reset, rebuild, ImportState, or a
	// changed share past the sweep cutover (sweepShareInv).
	Full bool
	// Snap is the number of leading snapshot entries in Nodes (index =
	// dense id); the overlay leaves after them are re-listed on every
	// export.
	Snap int
	// Changed lists, ascending, the dense ids of the snapshot entries
	// re-derived since export Seq−1 (nil when Full); every other
	// snapshot entry is unchanged. Owned by m like the state.
	Changed []tree.NodeID
}

// ExportChanges is ExportState plus what changed since the previous
// export. It keeps the snapshot section of the state across calls and
// re-derives only the entries whose node was marked since then — paid,
// fetched, evicted, or touched by a topology mutation — each with the
// per-node rule (Counter, cache membership, liveness): O(changed ·
// deg · log n). Past the cutover share, and whenever every counter may
// have moved (phase end, Reset, rebuild, restore), it re-derives every
// entry with one linear counter sweep instead: O(snapshot + segment
// arena), however many ids were ever withdrawn. The overlay leaves are
// re-listed either way: O(overlay).
func (m *MutableTC) ExportChanges() (*MutableState, Changes) {
	a := m.tc
	n := a.t.Len()
	m.exports++
	ch := Changes{Seq: m.exports, Snap: n}
	nodes := m.state.Nodes
	if a.chg.all {
		ch.Full = true
		m.fullExports++
		cnt := m.sweepCounters()
		nodes = nodes[:0]
		for g := 0; g < n; g++ {
			v := tree.NodeID(g)
			ns := m.snapEntry(v)
			if ns.Live {
				ns.Cnt = cnt[a.t.HeavySlot(v)]
				ns.Cached = a.cache.Contains(v) // tombstones are pinned, not cached
			}
			nodes = append(nodes, ns)
		}
		a.chg.reset()
	} else {
		nodes = nodes[:n]
		m.changed = a.chg.take(m.changed)
		for _, v := range m.changed {
			ns := m.snapEntry(v)
			if ns.Live {
				ns.Cnt = a.Counter(v)
				ns.Cached = a.cache.Contains(v)
			}
			nodes[v] = ns
		}
		ch.Changed = m.changed
	}
	for i := range a.ov.leaves {
		if l := &a.ov.leaves[i]; !l.dead {
			nodes = append(nodes, NodeState{ID: l.node, Parent: m.dyn.Parent(l.node), Cnt: l.cnt, Live: true, Cached: l.cached})
		}
	}
	m.state = MutableState{
		NextID:      m.dyn.NumIDs(),
		Nodes:       nodes,
		Epoch:       m.dyn.Epoch(),
		Pending:     m.dyn.Pending(),
		Led:         a.led,
		Round:       a.round,
		PhaseRounds: a.rounds,
		Phase:       a.phase,
		Peak:        a.peak,
	}
	return &m.state, ch
}

// snapEntry returns dense node v's entry without its counter and
// cached flag, which only a live node has.
func (m *MutableTC) snapEntry(v tree.NodeID) NodeState {
	s := m.dyn.Stable(v)
	return NodeState{ID: s, Parent: m.dyn.Parent(s), Live: m.dyn.Live(s), InSnap: true}
}

// FullExports returns how many exports (captures included) re-derived
// every entry since the instance was built or last imported a state.
func (m *MutableTC) FullExports() int64 { return m.fullExports }

// sweepShareInv sets the cutover between ExportChanges' two paths: an
// export sweeps every entry once more than 1/sweepShareInv of the
// snapshot's nodes changed. Measured on the benchmark FIB (65,537
// rules, α 8, 4,096 cached, seeds 3 and 11, a 2-CPU container), a
// capture plus verify from the same state took, patched against full:
// 0.51 against 2.8–3.1 ms with 3.7% of the entries changed, 1.0
// against 2.9 ms at 12%, 1.7–2.1 against 3.0–3.4 ms at 22%, and
// 2.4–2.6 against 2.9–3.4 ms at 36%. Per entry, re-deriving a changed
// one (Counter, cache membership, liveness) and patching it cost
// 90–165 ns, sweeping and encoding one about 45–50 ns, so the paths
// break even near 40% of the entries; the cutover sits below that, at
// a third, since the patch cost per entry varies more between states.
const sweepShareInv = 3

// changeSet records the dense nodes whose exported entry may have
// changed since the last export: a bitset and its population. Once
// more than 1/sweepShareInv of the snapshot's nodes are marked, or a
// phase end or rebuild moves every counter, it stops tracking (all),
// and the next export sweeps every entry. An export reads the marked
// nodes off the bitset in ascending order, one word per 64 nodes.
type changeSet struct {
	bits  []uint64
	n     int // marked nodes
	limit int
	all   bool
}

// newChangeSet returns a change set over n nodes with every entry
// marked, reusing c's buffer when c is non-nil.
func newChangeSet(c *changeSet, n int) *changeSet {
	if c == nil {
		c = new(changeSet)
	}
	c.bits = resize(c.bits, (n+63)/64)
	c.reset()
	c.limit = n / sweepShareInv
	c.all = true
	return c
}

func (c *changeSet) mark(v tree.NodeID) {
	if c.all {
		return
	}
	w, b := &c.bits[v>>6], uint64(1)<<(v&63)
	if *w&b != 0 {
		return
	}
	*w |= b
	c.n++
	if c.n > c.limit {
		c.all = true
	}
}

func (c *changeSet) markNodes(x []tree.NodeID) {
	for _, v := range x {
		c.mark(v)
	}
}

func (c *changeSet) markAll() { c.all = true }

func (c *changeSet) reset() {
	clear(c.bits)
	c.n = 0
	c.all = false
}

// take returns the marked nodes in ascending order, in buf's backing
// array, and empties the set.
func (c *changeSet) take(buf []tree.NodeID) []tree.NodeID {
	out := buf[:0]
	for i, w := range c.bits {
		for ; w != 0; w &= w - 1 {
			out = append(out, tree.NodeID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	c.reset()
	return out
}

// sweepCounters returns the counter of every snapshot node, indexed by
// heavy slot, in the instance's reused sweep buffer.
func (m *MutableTC) sweepCounters() []int64 {
	m.cntH = resize(m.cntH, m.tc.t.Len())
	m.tc.counterSweep(m.cntH)
	return m.cntH
}

// resize returns s with length n, reusing its backing array when it is
// large enough and growing it geometrically otherwise, so a buffer
// that tracks the growing stable id space costs amortized O(1) per id.
// Elements beyond len(s) are not cleared: callers overwrite every
// element they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// counterSweep writes cnt(v) of every node into out, indexed by heavy
// slot: the values Counter reconstructs one node at a time, derived in
// one linear pass that never writes the lazy structures. Slots are
// visited in layout order, where every node's parent slot precedes its
// own. Each slot takes its own aggregate — the cap sum cnt(P(v)) =
// key + α·|P(v)| when v is non-cached, hA(v) when it is cached, whose
// counter is hA + α − Σ⁺hA(children) — and subtracts its contribution
// from its parent's: cnt(P(v)) from a non-cached parent (whose cap
// contains P(v); the cached set is downward closed, so a non-cached
// node's parent is non-cached), a non-negative hA from a cached one.
// Segment paths are descended top-down once, accumulating the pending
// range-adds of their internal nodes; epoch-stale records read as
// their phase-start values. The overlay's live leaves then settle into
// their snapshot parents the same way. O(n + segment arena + overlay).
func (a *TC) counterSweep(out []int64) {
	for pid := int32(0); pid < int32(a.t.NumHeavyPaths()); pid++ {
		base, l := a.t.HeavyPathBase(pid), a.t.HeavyPathLen(pid)
		if off, p := a.seg.Meta(pid); off >= 0 {
			a.sweepSeg(out, off, base, p, l, 1, 0, 0, 0)
			continue
		}
		for g := base; g < base+l; g++ {
			a.sweepSlot(out, g, 0, 0, 0)
		}
	}
	if a.ov == nil {
		return
	}
	for i := range a.ov.leaves {
		l := &a.ov.leaves[i]
		if l.dead {
			continue
		}
		gp := a.t.HeavySlot(l.parent)
		if !l.cached {
			out[gp] -= l.cnt
		} else if hA := l.cnt - a.cfg.Alpha; hA >= 0 && a.cache.Contains(l.parent) {
			out[gp] -= hA
		}
	}
}

// sweepSeg descends segment-tree node t of the path at base (arena
// offset off, width p, length l), carrying the pending adds of t's
// ancestors, and sweeps the path's slots left to right.
func (a *TC) sweepSeg(out []int64, off, base, p, l, t int32, accK int64, accS int32, accA int64) {
	if t >= p {
		if i := t - p; i < l {
			a.sweepSlot(out, base+i, accK, accS, accA)
		}
		return
	}
	if nd := &a.pI[off+t-1]; nd.ep == a.epoch {
		accK += nd.addK
		accS += nd.addS
	}
	if nd := &a.nI[off+t-1]; nd.ep == a.epoch {
		accA += nd.addA
	}
	a.sweepSeg(out, off, base, p, l, 2*t, accK, accS, accA)
	a.sweepSeg(out, off, base, p, l, 2*t+1, accK, accS, accA)
}

// sweepSlot settles slot g given the pending adds (accK, accS, accA)
// above it: see counterSweep.
func (a *TC) sweepSlot(out []int64, g int32, accK int64, accS int32, accA int64) {
	alpha := a.cfg.Alpha
	up := upDecode(a.pL[g].up) // the positive record is read anyway
	if a.cache.Contains(a.t.NodeAtHeavySlot(g)) {
		hA := int64(notCachedHA) // tombstones keep the sentinel
		if l := &a.nL[g]; l.ep == a.epoch {
			hA = l.hA
		}
		hA += accA
		out[g] = hA + alpha
		if up >= 0 && hA >= 0 && a.cache.Contains(a.t.NodeAtHeavySlot(up)) {
			out[up] -= hA
		}
		return
	}
	key, size := -alpha*int64(a.pSz0[g]), a.pSz0[g]
	if l := &a.pL[g]; l.ep == a.epoch {
		key = l.key
	}
	if s := &a.pS[g]; s.ep == a.epoch {
		size = s.size
	}
	cp := key + accK + alpha*int64(size+accS)
	out[g] = cp
	if up >= 0 {
		out[up] -= cp
	}
}

// RebuildFrac returns the configured rebuild threshold fraction.
func (m *MutableTC) RebuildFrac() float64 { return m.cfg.RebuildFrac }

// RestoreMutable reconstructs a live instance from a captured state
// without trace replay: the dense snapshot is rebuilt from the
// snapshot-resident stable ids (dense ids in increasing stable order,
// exactly the numbering tree.Dyn produces, so heavy paths and segment
// skeletons come out identical to the captured instance's), the
// overlay records and phantom pins are reinstalled, and the lazy
// aggregates are derived by the rebuild injection pass. It validates
// the id-space wiring — present ids strictly ascending inside
// [0, NextID), overlay leaves above every snapshot id, the order
// ExportState writes, so a restored instance always exports a state it
// can restore — and the cheap structural invariants (live parents,
// downward-closed cached set, capacity), and returns an error — never
// panics — on inconsistent input; deeper cost invariants are the
// caller's responsibility (the snapshot codec integrity-checks
// captured state upstream). Memory is O(NextID).
func RestoreMutable(cfg MutableConfig, st *MutableState) (*MutableTC, error) {
	if cfg.RebuildFrac <= 0 {
		cfg.RebuildFrac = 0.125
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st.Led.Alpha != cfg.Alpha {
		return nil, fmt.Errorf("core: restore: ledger alpha %d does not match configured alpha %d", st.Led.Alpha, cfg.Alpha)
	}
	if st.Round < 0 || st.Phase < 0 || st.PhaseRounds < 0 || st.Peak < 0 || st.Pending < 0 || st.Epoch < 0 {
		return nil, fmt.Errorf("core: restore: negative cursor state")
	}
	ids := st.NextID
	if ids < 1 || ids > tree.MaxIDs {
		return nil, fmt.Errorf("core: restore: id space of %d ids outside [1, %d]", ids, tree.MaxIDs)
	}
	nodes := st.Nodes
	if len(nodes) == 0 || nodes[0].ID != 0 || !nodes[0].Live || !nodes[0].InSnap {
		return nil, fmt.Errorf("core: restore: the root (stable id 0) must be live and snapshot-resident")
	}

	// Lay the present ids out over the id space; withdrawn ids stay
	// dead with no parent. Dense ids follow increasing stable order.
	parent := make([]tree.NodeID, ids)
	live := make([]bool, ids)
	denseOf := make([]tree.NodeID, ids)
	for s := range parent {
		parent[s], denseOf[s] = tree.None, tree.None
	}
	var stable []tree.NodeID
	prev, overlay := tree.NodeID(-1), false
	for _, ns := range nodes {
		s := ns.ID
		if s <= prev || int(s) >= ids {
			return nil, fmt.Errorf("core: restore: node id %d after %d is not ascending inside the id space [0,%d)", s, prev, ids)
		}
		prev = s
		switch {
		case ns.InSnap && overlay:
			return nil, fmt.Errorf("core: restore: snapshot node %d listed above an overlay leaf", s)
		case ns.InSnap:
			denseOf[s] = tree.NodeID(len(stable))
			stable = append(stable, s)
		case ns.Live:
			overlay = true
		default:
			return nil, fmt.Errorf("core: restore: node %d is neither live nor snapshot-resident", s)
		}
		parent[s], live[s] = ns.Parent, ns.Live
	}
	parents := make([]tree.NodeID, len(stable))
	for g, s := range stable {
		if s == 0 {
			parents[g] = tree.None
			continue
		}
		p := parent[s]
		if p < 0 || int(p) >= ids || denseOf[p] == tree.None {
			return nil, fmt.Errorf("core: restore: snapshot node %d has non-snapshot parent %d", s, p)
		}
		parents[g] = denseOf[p]
	}
	t, err := tree.NewAtEpoch(parents, st.Epoch)
	if err != nil {
		return nil, fmt.Errorf("core: restore: invalid snapshot topology: %w", err)
	}
	dyn, err := tree.RestoreDyn(t, stable, parent, live, st.Pending)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}

	// Cheap logical validation: dead nodes carry no state, counters are
	// non-negative, the cached set is downward closed over the live
	// topology (caching a rule pins all its more-specifics) and fits
	// the capacity. The migration buffers are indexed by stable id.
	cntS := make([]int64, ids)
	cachedS := make([]bool, ids)
	for _, ns := range nodes {
		cntS[ns.ID], cachedS[ns.ID] = ns.Cnt, ns.Cached
	}
	occ := 0
	for _, ns := range nodes {
		s := ns.ID
		if !ns.Live {
			if ns.Cnt != 0 || ns.Cached {
				return nil, fmt.Errorf("core: restore: dead node %d carries counter or cached state", s)
			}
			continue
		}
		if ns.Cnt < 0 {
			return nil, fmt.Errorf("core: restore: negative counter on node %d", s)
		}
		if ns.Cached {
			occ++
		}
		if s != 0 && cachedS[parent[s]] && !ns.Cached {
			return nil, fmt.Errorf("core: restore: cached set is not downward closed at node %d", s)
		}
		if !ns.InSnap && denseOf[parent[s]] == tree.None {
			return nil, fmt.Errorf("core: restore: overlay leaf %d hangs under non-snapshot parent %d", s, parent[s])
		}
	}
	if occ > cfg.Capacity {
		return nil, fmt.Errorf("core: restore: %d cached nodes exceed capacity %d", occ, cfg.Capacity)
	}

	m := &MutableTC{dyn: dyn, cfg: cfg, cntS: cntS, cachedS: cachedS}
	m.tc = m.newInner(t)
	m.tc.led = st.Led
	m.tc.round, m.tc.rounds = st.Round, st.PhaseRounds
	m.tc.phase, m.tc.peak = st.Phase, st.Peak

	// Reinstall the overlay: inserted leaves (live, not snapshot-
	// resident) in increasing stable order — the order the captured
	// instance inserted them — and tombstone pins for snapshot nodes
	// deleted since the last rebuild.
	ov := m.tc.ov
	var ph []bool
	for _, ns := range nodes {
		switch {
		case ns.Live && !ns.InSnap:
			gp := denseOf[ns.Parent]
			rec := ovLeaf{node: ns.ID, parent: gp, cnt: ns.Cnt, cached: ns.Cached}
			i := int32(len(ov.leaves))
			ov.leaves = append(ov.leaves, rec)
			ov.idx[ns.ID] = i
			ov.byParent[gp] = append(ov.byParent[gp], i)
			ov.nLive++
			if rec.cached {
				ov.nCached++
			}
		case !ns.Live: // a tombstone: validated snapshot-resident, never the root
			g := denseOf[ns.ID]
			ov.phNode = append(ov.phNode, g)
			if ph == nil {
				ph = make([]bool, t.Len())
			}
			ph[g] = true
		}
	}
	m.inject(m.tc, t, ph)
	return m, nil
}

// ImportState replaces the instance's state in place with a captured
// state, preserving the configuration (and any attached observer,
// which keeps receiving stable ids of the restored id space). Export
// bookkeeping starts over: the next export re-derives every entry,
// Changes.Seq and FullExports count from zero, and Codec is cleared.
// The instance is untouched when an error is returned.
func (m *MutableTC) ImportState(st *MutableState) error {
	m2, err := RestoreMutable(m.cfg, st)
	if err != nil {
		return err
	}
	*m = *m2
	return nil
}
