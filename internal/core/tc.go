// Package core implements TC, the online tree caching algorithm of
// Bienkowski, Marcinkowski, Pacut, Schmid and Spyra (SPAA 2017),
// Sections 4 and 6.
//
// TC is a phase-based rent-or-buy scheme. Within a phase every node
// keeps a counter of the requests it has paid for since it last changed
// cached/non-cached state. After a paid request, TC looks for a valid
// changeset X that is saturated (cnt(X) ≥ |X|·α) and maximal (no valid
// strict superset is saturated) and applies it. If applying a fetch
// would exceed the capacity k_ONL, TC instead evicts everything and
// starts a new phase.
//
// This file contains the heavy-path serve core. The paper's Section 6
// data structures charge every paid request with a full root-path (or
// cached-chain) update, which is O(depth) — linear on the deep shapes
// (trie chains, caterpillar spines) the FIB application produces. Here
// the root path is decomposed by the tree's heavy-path decomposition
// into O(log n) contiguous slot ranges, and the per-node state is kept
// in per-heavy-path lazy structures:
//
//   - the positive side keeps, per slot, key(u) = cnt(P_t(u)) − α·|P_t(u)|
//     and |P_t(u)|, where P_t(u) is the non-cached cap of T(u). A paid
//     positive request is a +1 range-add on each root-path prefix plus a
//     "topmost key ≥ 0" query (the unique maximal saturated changeset);
//     applyFetch's ancestor subtraction and applyEvict's ancestor size
//     bump are range-adds on the same prefixes;
//
//   - the negative side keeps hA(u), hB(u) with val_t(H_t(u)) =
//     hA + hB/(|T|+1) for cached u, and a very negative sentinel for
//     non-cached u. A counter bump propagates as a constant delta along
//     the maximal run of hA ≥ 0 ancestors — a range-add bounded by a
//     "nearest hA < 0 ancestor" query, which also exits early (usually
//     after one slot) when the contribution does not change.
//
// Per-node counters are never materialised: every bump is absorbed by
// the aggregates (the +1 range-add on the positive keys, hA on the
// negative side), and the Counter accessor reconstructs them on demand.
//
// Heavy paths up to tree.FlatPathMax stay flat (a direct scan over
// contiguous 16-byte slot records — the old climb, now cache-line
// friendly); longer paths carry an epoch-stamped lazy segment tree
// (range-add + max for the positive key, range-add + min for hA), so a
// decision costs O(log n · log n) instead of O(depth). All scratch is
// persistent and the steady-state serve path performs zero heap
// allocations.
package core

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Observer receives the algorithm's externally visible events. All
// callbacks are synchronous; implementations must not mutate the
// algorithm. Any field may be nil-safe ignored by using a partial
// implementation via NopObserver embedding.
type Observer interface {
	// OnRequest fires for every request, after the serving cost is
	// settled; paid reports whether the request cost 1.
	OnRequest(round int64, v tree.NodeID, kind trace.Kind, paid bool)
	// OnApply fires when TC applies changeset x at time round; positive
	// tells fetch (true) from eviction (false). x must not be retained.
	OnApply(round int64, x []tree.NodeID, positive bool)
	// OnPhaseEnd fires when a phase ends because fetching wouldFetch
	// would have overflowed the capacity; evicted lists the nodes
	// flushed. k_P of the finished phase is len(evicted)+len(wouldFetch)
	// (the paper's convention measures k_P after the artificial fetch,
	// before the final eviction). Neither slice may be retained.
	OnPhaseEnd(round int64, evicted, wouldFetch []tree.NodeID)
}

// NopObserver is an Observer that ignores everything; embed it to
// implement only some callbacks.
type NopObserver struct{}

func (NopObserver) OnRequest(int64, tree.NodeID, trace.Kind, bool) {}
func (NopObserver) OnApply(int64, []tree.NodeID, bool)             {}
func (NopObserver) OnPhaseEnd(int64, []tree.NodeID, []tree.NodeID) {}

// Config parameterises TC.
type Config struct {
	// Alpha is the per-node fetch/evict cost α. The paper assumes α is
	// an even integer ≥ 2; New rejects other values.
	Alpha int64
	// Capacity is the online cache size k_ONL ≥ 1.
	Capacity int
	// Observer optionally receives events; may be nil.
	Observer Observer
}

// Validate reports whether the configuration is one the algorithm is
// defined for: α an even integer ≥ 2 and a capacity ≥ 1. New panics on
// an invalid configuration; callers holding outside input (a daemon's
// flags) check it with Validate first.
func (c Config) Validate() error {
	if c.Alpha < 2 || c.Alpha%2 != 0 {
		return fmt.Errorf("core: Alpha must be an even integer >= 2, got %d", c.Alpha)
	}
	if c.Capacity < 1 {
		return fmt.Errorf("core: Capacity must be >= 1, got %d", c.Capacity)
	}
	return nil
}

// negInf / posInf are sentinels far outside any reachable aggregate
// value but safe against overflow under the bounded range-adds of one
// phase.
const (
	negInf = math.MinInt64 / 4
	posInf = math.MaxInt64 / 4
	// notCachedHA marks the hA slot of a non-cached node. Real hA
	// values are ≥ −α, so anything below notCachedHA/2 is a sentinel.
	notCachedHA = negInf
	// cSegBit flags, inside a slot record's posF/up field, that the
	// slot's heavy path carries a segment tree (mirrors the
	// tree.SlotNav encoding). Trees are capped well below 2^30 nodes
	// by the int32 NodeID space, so the bit never collides with a
	// slot. segRootUp marks the root slot of a segment path (its up is
	// −1, which has no room for the flag).
	cSegBit = int32(1) << 30
)

const segRootUp = math.MinInt32

// upIsFlat reports whether the up-encoding belongs to a flat-path slot.
func upIsFlat(u int32) bool { return u >= -1 && u < cSegBit }

// upDecode strips the encoding, yielding the parent slot or −1.
func upDecode(u int32) int32 {
	if u == segRootUp {
		return -1
	}
	return u &^ cSegBit
}

// posLeaf is the positive-side state of one heavy slot: key =
// cnt(P_t(u)) − α·|P_t(u)| and size = |P_t(u)|, valid while u is
// non-cached. Stale epochs read as the phase-start state (0 count,
// full subtree size). On segment paths the true key/size is the leaf
// value plus the pending adds on its segment-tree ancestors.
//
// The static parent-slot pointer is embedded in the record so a climb
// step costs one 16-byte load: up is the slot of the PARENT node (g−1
// inside a path, the head's parent across a light edge, −1 at the
// root), which turns the whole flat climb into a single uniform loop.
// Slots on segment-tree paths carry cSegBit in up (the root of such a
// path stores segRootUp); |P| lives in the posSz side table, touched
// only by fetch/evict bookkeeping. Epoch resets must preserve up.
type posLeaf struct {
	key int64
	ep  int32
	up  int32 // static: parent slot | cSegBit, −1 at a flat root, segRootUp at a seg root
}

// posSz is the |P_t(u)| side record of one heavy slot, epoch-stamped
// independently of the key (sizes change only when caps move).
type posSz struct {
	size int32
	ep   int32
}

// posNode is one internal segment-tree node of the positive side,
// packed to 24 bytes: mx is the max key below (pending adds of this
// node included, those of its ancestors excluded), addK/addS are the
// pending key/size adds for the whole subtree.
type posNode struct {
	mx   int64
	addK int64
	addS int32
	ep   int32
}

// negLeaf is the negative-side state of one heavy slot: hA/hB of the
// best tree cap rooted at u, val_t(H_t(u)) = hA + hB/(|T|+1), while u
// is cached; hA = notCachedHA otherwise (also the phase-start state).
// The linear implementation's running child sums are implicit:
// sA = hA − cnt(u) + α, sB = hB − 1. The static climb coordinates ride
// in the record's padding (32 bytes total, one cache line per random
// access); epoch resets must preserve them. See posLeaf for the posF /
// up encoding.
type negLeaf struct {
	hA, hB int64
	ep     int32
	posF   int32 // static: position within the heavy path | cSegBit
	up     int32 // static: slot of the parent node, or −1
	_      int32
}

// negNode is one internal segment-tree node of the negative side: mn is
// the min hA below (own pending adds included), addA/addB the pending
// hA/hB adds for the whole subtree.
type negNode struct {
	mn   int64
	addA int64
	addB int64
	ep   int32
	_    int32
}

// TC is the heavy-path implementation of the paper's algorithm. Create
// one with New. TC is not safe for concurrent use.
type TC struct {
	t     *tree.Tree
	seg   *tree.SegIndex
	cfg   Config
	cache *cache.Subforest
	led   cache.Ledger

	round  int64
	phase  int64
	epoch  int32 // incremented at each phase start; lazily resets state
	rounds int64 // rounds within phase (diagnostics)
	peak   int   // high-water cache occupancy since Reset (grows only at fetches)

	pL   []posLeaf // positive leaves, indexed by heavy slot
	pS   []posSz   // positive leaf sizes, indexed by heavy slot (cold side table)
	pSz0 []int32   // per slot: |T(u)|, the phase-start size (dense: the reset table stays cache-resident)
	pI   []posNode // positive internal nodes, indexed by segment arena
	nL   []negLeaf // negative leaves, indexed by heavy slot
	nI   []negNode // negative internal nodes, indexed by segment arena

	// ov, when non-nil, is the dynamic-topology overlay (MutableTC):
	// leaves inserted since the last snapshot rebuild and tombstones of
	// deleted snapshot nodes. All hooks are nil-checked, so a static TC
	// pays one predictable branch on the cold fetch/evict/phase paths
	// and nothing on the per-request serve path.
	ov *tcOverlay

	// Scratch buffers reused across rounds; Serve never heap-allocates
	// in steady state.
	xbuf    []tree.NodeID
	markBuf []bool
}

// New returns a TC instance over t. It panics if the configuration is
// invalid (the configuration is programmer input, not runtime data).
// Instances over the same tree share its immutable heavy-path segment
// skeleton (tree.SegIndex), so a sharded fleet pays the index cost
// once.
func New(t *tree.Tree, cfg Config) *TC {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := t.Len()
	seg := t.Seg()
	arena := seg.ArenaLen()
	a := &TC{
		t:       t,
		seg:     seg,
		cfg:     cfg,
		cache:   cache.NewSubforest(t),
		led:     cache.Ledger{Alpha: cfg.Alpha},
		epoch:   1,
		pL:      make([]posLeaf, n),
		pS:      make([]posSz, n),
		pSz0:    make([]int32, n),
		pI:      make([]posNode, arena),
		nL:      make([]negLeaf, n),
		nI:      make([]negNode, arena),
		xbuf:    make([]tree.NodeID, 0, 64),
		markBuf: make([]bool, n),
	}
	for g, v := range t.HeavyOrder() {
		a.pSz0[g] = int32(t.SubtreeSize(v))
		nav := t.HeavyNav(int32(g))
		posF := nav.Pos()
		up := int32(-1)
		if p := t.Parent(v); p != tree.None {
			up = t.HeavySlot(p)
		}
		pup := up
		if nav.Seg() {
			posF |= cSegBit
			if pup < 0 {
				pup = segRootUp
			} else {
				pup |= cSegBit
			}
		}
		a.pL[g].up = pup
		a.nL[g].posF, a.nL[g].up = posF, up
	}
	return a
}

// Name implements the sim.Algorithm interface.
func (a *TC) Name() string { return "TC" }

// Tree returns the universe tree.
func (a *TC) Tree() *tree.Tree { return a.t }

// Alpha returns α.
func (a *TC) Alpha() int64 { return a.cfg.Alpha }

// Capacity returns k_ONL.
func (a *TC) Capacity() int { return a.cfg.Capacity }

// Cached reports whether v is currently cached.
func (a *TC) Cached(v tree.NodeID) bool { return a.cache.Contains(v) }

// CacheLen returns the current number of cached nodes.
func (a *TC) CacheLen() int { return a.cache.Len() }

// MaxCacheLen returns the peak cache occupancy since the last Reset.
// Occupancy grows only at fetches, so this equals the maximum
// post-request occupancy of a per-request replay; the engine's batched
// workers read it instead of sampling CacheLen after every request.
func (a *TC) MaxCacheLen() int { return a.peak }

// CacheMembers returns the cached nodes in preorder (copies).
func (a *TC) CacheMembers() []tree.NodeID { return a.cache.Members() }

// AppendCacheMembers appends the cached nodes in preorder to dst and
// returns it. Allocation-free when dst has capacity; cached subtrees
// are bulk-copied via their preorder intervals.
func (a *TC) AppendCacheMembers(dst []tree.NodeID) []tree.NodeID {
	return a.cache.AppendMembers(dst)
}

// CacheRoots returns the roots of the maximal cached subtrees in
// preorder.
func (a *TC) CacheRoots() []tree.NodeID { return a.cache.Roots() }

// Ledger returns the accumulated costs.
func (a *TC) Ledger() cache.Ledger { return a.led }

// Round returns the number of requests served.
func (a *TC) Round() int64 { return a.round }

// Phase returns the number of completed phases (i.e. the current phase
// index, 0-based).
func (a *TC) Phase() int64 { return a.phase }

// Counter returns node v's current counter (for tests and analysis).
// The serve path never materialises per-node counters — every bump is
// absorbed by the positive/negative aggregates — so the counter is
// reconstructed here: for non-cached v, cnt(v) = cnt(P(v)) − Σ
// cnt(P(c)) over non-cached children c; for cached v, cnt(v) = hA(v) +
// α − Σ⁺hA(c) over children. O(deg(v) · log n).
func (a *TC) Counter(v tree.NodeID) int64 {
	if a.cache.Contains(v) {
		hA, _ := a.negRead(v)
		c := hA + a.cfg.Alpha
		for _, ch := range a.t.Children(v) {
			if chA, _ := a.negRead(ch); chA >= 0 {
				c -= chA
			}
		}
		if a.ov != nil {
			c -= a.ov.cachedChildHA(a, v)
		}
		return c
	}
	key, size := a.posRead(a.t.HeavySlot(v))
	c := key + int64(size)*a.cfg.Alpha
	for _, ch := range a.t.Children(v) {
		if !a.cache.Contains(ch) {
			k, s := a.posRead(a.t.HeavySlot(ch))
			c -= k + int64(s)*a.cfg.Alpha
		}
	}
	if a.ov != nil {
		c -= a.ov.missingChildCnt(v)
	}
	return c
}

// Reset returns the algorithm to its initial state (empty cache, zero
// costs, phase 0).
func (a *TC) Reset() {
	a.cache.Clear()
	a.led.Reset()
	a.round, a.phase, a.rounds = 0, 0, 0
	a.peak = 0
	a.epoch++
	if a.ov != nil {
		a.ov.afterFlush(a)
	}
}

// Serve processes the request of the next round and returns the serving
// cost (0 or 1) and the movement cost incurred at the end of the round.
func (a *TC) Serve(req trace.Request) (serveCost, moveCost int64) {
	a.round++
	a.rounds++
	v := req.Node
	cached := a.cache.Contains(v)
	paid := (req.Kind == trace.Positive && !cached) || (req.Kind == trace.Negative && cached)
	if a.cfg.Observer != nil {
		a.cfg.Observer.OnRequest(a.round, v, req.Kind, paid)
	}
	if !paid {
		// Counters unchanged; by Lemma 5.1(3) no changeset can have
		// become saturated, so the cache stays put.
		return 0, 0
	}
	a.led.PayServe()
	moveBefore := a.led.Move
	if req.Kind == trace.Positive {
		a.servePositive(v)
	} else {
		a.serveNegative(v)
	}
	return 1, a.led.Move - moveBefore
}

// ---------------------------------------------------------------------------
// Positive-side lazy structures.
// ---------------------------------------------------------------------------

// pLeaf returns slot g's key record, lazily reset to the phase-start
// state key = −α·|T(u)|: the key is derived from the dense per-slot
// size table, so a stale reset costs one 4-byte load.
func (a *TC) pLeaf(g int32) *posLeaf {
	l := &a.pL[g]
	if l.ep != a.epoch {
		l.key = -a.cfg.Alpha * int64(a.pSz0[g])
		l.ep = a.epoch
	}
	return l
}

// pSize returns slot g's size record, lazily reset to |T(u)|.
func (a *TC) pSize(g int32) *posSz {
	sRec := &a.pS[g]
	if sRec.ep != a.epoch {
		sRec.size = a.pSz0[g]
		sRec.ep = a.epoch
	}
	return sRec
}

// pInt returns arena node j's record, lazily reset: the phase-start max
// key below j is −α·(min subtree size below j), precomputed shape-only
// in the shared SegIndex.
func (a *TC) pInt(j int32) *posNode {
	nd := &a.pI[j]
	if nd.ep != a.epoch {
		mx := int64(negInf) // padding only
		if m := a.seg.MinSize(j); m != tree.NoSegMinSize {
			mx = -a.cfg.Alpha * int64(m)
		}
		*nd = posNode{mx: mx, ep: a.epoch}
	}
	return nd
}

// posSegAdd adds (dK, dS) to leaf positions [ql..qr] of segment path
// pid (with base slot base), maintaining internal maxes.
func (a *TC) posSegAdd(pid, base, ql, qr int32, dK int64, dS int32) {
	off, p := a.seg.Meta(pid)
	l := a.t.HeavyPathLen(pid)
	a.posAddRec(off, base, p, l, 1, 0, p, ql, qr, dK, dS)
}

// posAddRec applies the add below node t covering [lo,hi) and returns
// t's value (internal max / leaf key) for the parent's pull-up.
func (a *TC) posAddRec(off, base, p, l, t, lo, hi, ql, qr int32, dK int64, dS int32) int64 {
	if t >= p { // leaf
		i := t - p
		if i >= l {
			return negInf // padding
		}
		lf := a.pLeaf(base + i)
		if i >= ql && i <= qr {
			lf.key += dK
			if dS != 0 {
				a.pSize(base + i).size += dS
			}
		}
		return lf.key
	}
	nd := a.pInt(off + t - 1)
	if qr < lo || hi <= ql {
		return nd.mx
	}
	if ql <= lo && hi-1 <= qr {
		nd.addK += dK
		nd.mx += dK
		nd.addS += dS
		return nd.mx
	}
	mid := (lo + hi) / 2
	lv := a.posAddRec(off, base, p, l, 2*t, lo, mid, ql, qr, dK, dS)
	rv := a.posAddRec(off, base, p, l, 2*t+1, mid, hi, ql, qr, dK, dS)
	if rv > lv {
		lv = rv
	}
	nd.mx = nd.addK + lv
	return nd.mx
}

// posSegFirstSat returns the first position i ≤ p of segment path pid
// with key ≥ 0, or −1. Internal maxes over-approximate ranges that
// extend past p (they may include stale keys of cached slots), which
// only costs descents, never correctness: the final test is on leaves
// within [0..p], which are all non-cached during this query.
func (a *TC) posSegFirstSat(pid, base, p int32) int32 {
	off, pw := a.seg.Meta(pid)
	l := a.t.HeavyPathLen(pid)
	return a.posFirstRec(off, base, pw, l, 1, 0, pw, p, 0)
}

func (a *TC) posFirstRec(off, base, p, l, t, lo, hi, qr int32, acc int64) int32 {
	if lo > qr {
		return -1
	}
	if t >= p { // leaf
		i := t - p
		if i >= l {
			return -1
		}
		if a.pLeaf(base+i).key+acc >= 0 {
			return i
		}
		return -1
	}
	nd := a.pInt(off + t - 1)
	if nd.mx+acc < 0 {
		return -1
	}
	acc += nd.addK
	mid := (lo + hi) / 2
	if r := a.posFirstRec(off, base, p, l, 2*t, lo, mid, qr, acc); r >= 0 {
		return r
	}
	return a.posFirstRec(off, base, p, l, 2*t+1, mid, hi, qr, acc)
}

// posDescend walks the segment-tree spine from the root to leaf
// position i, fixing epochs and accumulating the pending (key, size)
// adds of every internal node above the leaf.
func (a *TC) posDescend(off, p, i int32) (accK int64, accS int32) {
	lo, span := int32(0), p
	for t := int32(1); t < p; {
		nd := a.pInt(off + t - 1)
		accK += nd.addK
		accS += nd.addS
		span >>= 1
		if i < lo+span {
			t = 2 * t
		} else {
			t = 2*t + 1
			lo += span
		}
	}
	return accK, accS
}

// posRead returns (key, size) at slot g.
func (a *TC) posRead(g int32) (int64, int32) {
	if upIsFlat(a.pL[g].up) {
		return a.pLeaf(g).key, a.pSize(g).size
	}
	i := a.t.HeavyNav(g).Pos()
	off, p := a.seg.Meta(a.t.HeavyPathOfSlot(g))
	accK, accS := a.posDescend(off, p, i)
	return a.pLeaf(g).key + accK, a.pSize(g).size + accS
}

// posAssign sets (key, size) at slot g to absolute values and repairs
// internal maxes along g's segment-tree spine.
func (a *TC) posAssign(g int32, key int64, size int32) {
	l := &a.pL[g]
	if upIsFlat(l.up) {
		l.key = key
		l.ep = a.epoch
		a.pS[g] = posSz{size: size, ep: a.epoch}
		return
	}
	pid := a.t.HeavyPathOfSlot(g)
	i := a.t.HeavyNav(g).Pos()
	base := g - i
	off, p := a.seg.Meta(pid)
	ln := a.t.HeavyPathLen(pid)
	accK, accS := a.posDescend(off, p, i)
	l.key = key - accK
	l.ep = a.epoch
	a.pS[g] = posSz{size: size - accS, ep: a.epoch}
	for t := (p + i) / 2; t >= 1; t /= 2 {
		nd := a.pInt(off + t - 1)
		lv := a.posChildVal(off, base, p, ln, 2*t)
		rv := a.posChildVal(off, base, p, ln, 2*t+1)
		if rv > lv {
			lv = rv
		}
		nd.mx = nd.addK + lv
	}
}

func (a *TC) posChildVal(off, base, p, l, t int32) int64 {
	if t >= p {
		i := t - p
		if i >= l {
			return negInf
		}
		return a.pLeaf(base + i).key
	}
	return a.pInt(off + t - 1).mx
}

// posRootPathAdd adds (dK, dS) to every node on the root path of the
// node at slot g (inclusive): one prefix range-add per heavy-path
// segment.
func (a *TC) posRootPathAdd(g int32, dK int64, dS int32) {
	for g >= 0 {
		u := a.pL[g].up
		if !upIsFlat(u) {
			pos := a.t.HeavyNav(g).Pos()
			base := g - pos
			a.posSegAdd(a.t.HeavyPathOfSlot(g), base, 0, pos, dK, dS)
			g = upDecode(a.pL[base].up)
			continue
		}
		l := a.pLeaf(g)
		l.key += dK
		if dS != 0 {
			a.pSize(g).size += dS
		}
		g = u
	}
}

// ---------------------------------------------------------------------------
// Positive requests and fetches (Section 6.1).
// ---------------------------------------------------------------------------

func (a *TC) servePositive(v tree.NodeID) {
	// v is non-cached, hence (downward closure) so is its whole root
	// path, and the counter bump is absorbed by the +1 on every
	// root-path key (v's own key included).
	if top := a.posRootPathBump(a.t.HeavySlot(v), 1); top >= 0 {
		key, s := a.posRead(top)
		a.applyFetch(a.t.NodeAtHeavySlot(top), top, key+int64(s)*a.cfg.Alpha, s)
	}
}

// posRootPathBump adds dK to every key on the root path of the node at
// slot g and returns the topmost slot whose key is now ≥ 0, or −1. The
// root path decomposes into O(log n) heavy-path prefixes; each gets
// one range-add on its keys, and a first-saturated query finds the
// topmost key ≥ 0 — exactly the first saturated P_t(u) of the paper's
// root-down scan, i.e. the unique maximal saturated changeset.
// Segments are processed bottom-up, so the last hit is the topmost.
// Serve bumps with dK = 1; the batched path bumps whole coalesced runs
// with dK = j* (the analytically computed saturation point).
func (a *TC) posRootPathBump(g int32, dK int64) int32 {
	top := int32(-1)
	for g >= 0 {
		u := a.pL[g].up
		if !upIsFlat(u) {
			pos := a.t.HeavyNav(g).Pos()
			base := g - pos
			pid := a.t.HeavyPathOfSlot(g)
			a.posSegAdd(pid, base, 0, pos, dK, 0)
			if hit := a.posSegFirstSat(pid, base, pos); hit >= 0 {
				top = base + hit
			}
			g = upDecode(a.pL[base].up)
			continue
		}
		// Uniform climb step: the parent-slot pointer rides on the
		// record's own cache line, so this is the old per-ancestor
		// loop with contiguous (per-path) instead of scattered slots.
		l := a.pLeaf(g)
		l.key += dK
		if l.key >= 0 {
			top = g
		}
		g = u
	}
	return top
}

// effCacheLen returns the cache occupancy of the live topology:
// tombstoned (phantom-pinned) nodes excluded, cached overlay leaves
// included. Identical to cache.Len() for a static TC.
func (a *TC) effCacheLen() int {
	n := a.cache.Len()
	if a.ov != nil {
		n += a.ov.nCached - len(a.ov.phNode)
	}
	return n
}

// applyFetch fetches X = P_t(u) (cnt c, size s) where u sits at slot
// gu, or flushes the cache and starts a new phase if X does not fit.
// Under a dynamic overlay P_t(u) also contains the non-cached overlay
// leaves hanging below T(u); they join the fetch (and the size s
// already counts them, since insertions adjust the ancestor
// aggregates).
func (a *TC) applyFetch(u tree.NodeID, gu int32, c int64, s int32) {
	// Collect X = P(u): the non-cached nodes of T(u) in preorder, via
	// the interval walk of AppendMissing (O(|X|) plus one interval test
	// per skipped cached subtree). X is collected before the capacity
	// check so a phase-end observer can see the would-be fetch (the
	// analysis' "artificial fetch" at end(P)).
	x := a.cache.AppendMissing(a.xbuf[:0], u)
	a.xbuf = x
	nJoin := 0
	if a.ov != nil {
		nJoin = a.ov.collectJoiners(a, u)
	}
	if len(x)+nJoin != int(s) {
		panic(fmt.Sprintf("core: P(%d) size mismatch: aggregate %d, collected %d+%d", u, s, len(x), nJoin))
	}
	if a.effCacheLen()+int(s) > a.cfg.Capacity {
		a.endPhase(x)
		return
	}
	if err := a.cache.Fetch(x); err != nil {
		panic("core: " + err.Error())
	}
	if a.ov != nil {
		a.ov.fetchJoiners()
	}
	a.led.PayFetch(int(s))
	if n := a.effCacheLen(); n > a.peak {
		a.peak = n
	}
	// Ancestors of u lose X from their P-aggregates: cnt −= c and
	// size −= s, i.e. key += α·s − c. (u itself is now cached; its
	// stale aggregates are rebuilt on eviction. Fetched counters reset
	// implicitly: cached state lives on the negative side only.)
	if nav := a.t.HeavyNav(gu); nav.Pos() > 0 {
		a.posRootPathAdd(gu-1, int64(s)*a.cfg.Alpha-c, -s)
	} else if nav.Up() >= 0 {
		a.posRootPathAdd(nav.Up(), int64(s)*a.cfg.Alpha-c, -s)
	}
	// Initialise the negative-side structure for the newly cached
	// nodes, children before parents (x is in preorder of the cap, so
	// reverse order works).
	for i := len(x) - 1; i >= 0; i-- {
		a.initHval(x[i])
	}
	if a.cfg.Observer != nil {
		a.cfg.Observer.OnApply(a.round, x, true)
	}
}

// ---------------------------------------------------------------------------
// Negative-side lazy structures.
// ---------------------------------------------------------------------------

// nLeaf returns slot g's record, lazily reset to the phase-start state
// (cache empty: the non-cached sentinel).
func (a *TC) nLeaf(g int32) *negLeaf {
	l := &a.nL[g]
	if l.ep != a.epoch {
		l.hA = notCachedHA
		l.hB = 0
		l.ep = a.epoch
	}
	return l
}

func (a *TC) nInt(j int32) *negNode {
	nd := &a.nI[j]
	if nd.ep != a.epoch {
		mn := int64(posInf) // padding only: never looks negative
		if a.seg.MinSize(j) != tree.NoSegMinSize {
			mn = notCachedHA
		}
		*nd = negNode{mn: mn, ep: a.epoch}
	}
	return nd
}

// negRead returns (hA, hB) of node v.
func (a *TC) negRead(v tree.NodeID) (int64, int64) {
	return a.negReadSlot(a.t.HeavySlot(v))
}

// negDescend walks the segment-tree spine from the root to leaf
// position i, fixing epochs and accumulating the pending (hA, hB) adds
// of every internal node above the leaf.
func (a *TC) negDescend(off, p, i int32) (accA, accB int64) {
	lo, span := int32(0), p
	for t := int32(1); t < p; {
		nd := a.nInt(off + t - 1)
		accA += nd.addA
		accB += nd.addB
		span >>= 1
		if i < lo+span {
			t = 2 * t
		} else {
			t = 2*t + 1
			lo += span
		}
	}
	return accA, accB
}

// negReadSlot returns (hA, hB) at slot g.
func (a *TC) negReadSlot(g int32) (int64, int64) {
	posF := a.nL[g].posF
	if posF&cSegBit == 0 {
		l := a.nLeaf(g)
		return l.hA, l.hB
	}
	i := posF &^ cSegBit
	off, p := a.seg.Meta(a.t.HeavyPathOfSlot(g))
	accA, accB := a.negDescend(off, p, i)
	l := a.nLeaf(g)
	return l.hA + accA, l.hB + accB
}

// negAssign sets (hA, hB) at slot g to absolute values and repairs
// internal mins along g's spine.
func (a *TC) negAssign(g int32, hA, hB int64) {
	l := &a.nL[g]
	if l.posF&cSegBit == 0 {
		l.hA = hA
		l.hB = hB
		l.ep = a.epoch
		return
	}
	pid := a.t.HeavyPathOfSlot(g)
	i := l.posF &^ cSegBit
	base := g - i
	off, p := a.seg.Meta(pid)
	ln := a.t.HeavyPathLen(pid)
	accA, accB := a.negDescend(off, p, i)
	l.hA = hA - accA
	l.hB = hB - accB
	l.ep = a.epoch
	for t := (p + i) / 2; t >= 1; t /= 2 {
		nd := a.nInt(off + t - 1)
		lv := a.negChildMin(off, base, p, ln, 2*t)
		rv := a.negChildMin(off, base, p, ln, 2*t+1)
		if rv < lv {
			lv = rv
		}
		nd.mn = nd.addA + lv
	}
}

func (a *TC) negChildMin(off, base, p, l, t int32) int64 {
	if t >= p {
		i := t - p
		if i >= l {
			return posInf
		}
		return a.nLeaf(base + i).hA
	}
	return a.nInt(off + t - 1).mn
}

// negAddRange adds (dA, dB) to positions [ql..qr] of the segment path
// with base slot base (flat paths are handled inline by the climbs).
func (a *TC) negAddRange(base, ql, qr int32, dA, dB int64) {
	pid := a.t.HeavyPathOfSlot(base)
	off, p := a.seg.Meta(pid)
	l := a.t.HeavyPathLen(pid)
	a.negAddRec(off, base, p, l, 1, 0, p, ql, qr, dA, dB)
}

func (a *TC) negAddRec(off, base, p, l, t, lo, hi, ql, qr int32, dA, dB int64) int64 {
	if t >= p { // leaf
		i := t - p
		if i >= l {
			return posInf
		}
		lf := a.nLeaf(base + i)
		if i >= ql && i <= qr {
			lf.hA += dA
			lf.hB += dB
		}
		return lf.hA
	}
	nd := a.nInt(off + t - 1)
	if qr < lo || hi <= ql {
		return nd.mn
	}
	if ql <= lo && hi-1 <= qr {
		nd.addA += dA
		nd.mn += dA
		nd.addB += dB
		return nd.mn
	}
	mid := (lo + hi) / 2
	lv := a.negAddRec(off, base, p, l, 2*t, lo, mid, ql, qr, dA, dB)
	rv := a.negAddRec(off, base, p, l, 2*t+1, mid, hi, ql, qr, dA, dB)
	if rv < lv {
		lv = rv
	}
	nd.mn = nd.addA + lv
	return nd.mn
}

// negLastNeg returns the largest position i ≤ p of the segment path
// with base slot base holding hA < 0, or −1 if the whole prefix is
// ≥ 0 (flat paths are handled inline by the climbs). Non-cached slots
// carry the very negative sentinel, so the query also stops at the
// cached-tree boundary.
func (a *TC) negLastNeg(base, p int32) int32 {
	pid := a.t.HeavyPathOfSlot(base)
	off, pw := a.seg.Meta(pid)
	l := a.t.HeavyPathLen(pid)
	return a.negLastRec(off, base, pw, l, 1, 0, pw, p, 0)
}

func (a *TC) negLastRec(off, base, p, l, t, lo, hi, qr int32, acc int64) int32 {
	if lo > qr {
		return -1
	}
	if t >= p { // leaf
		i := t - p
		if i >= l {
			return -1
		}
		if a.nLeaf(base+i).hA+acc < 0 {
			return i
		}
		return -1
	}
	nd := a.nInt(off + t - 1)
	if nd.mn+acc >= 0 {
		return -1
	}
	acc += nd.addA
	mid := (lo + hi) / 2
	if r := a.negLastRec(off, base, p, l, 2*t+1, mid, hi, qr, acc); r >= 0 {
		return r
	}
	return a.negLastRec(off, base, p, l, 2*t, lo, mid, qr, acc)
}

// ---------------------------------------------------------------------------
// Negative requests and evictions (Section 6.2).
// ---------------------------------------------------------------------------

func (a *TC) serveNegative(v tree.NodeID) {
	// Bump v's counter: hA(v) += 1 (hA = cnt − α + sA; the counter
	// bump is absorbed directly by hA). Then propagate v's contribution
	// change along the cached chain. The linear implementation rebuilt
	// the chain to the cached-tree root unconditionally; here the
	// contribution delta is constant along any run of hA ≥ 0 ancestors,
	// so the chain update is a range-add bounded by a "nearest hA < 0
	// ancestor" query — and exits immediately (the common case) when
	// the contribution is unchanged.
	var hA, hB int64
	var up int32
	g := a.t.HeavySlot(v)
	if a.nL[g].posF&cSegBit == 0 {
		l := a.nLeaf(g)
		l.hA++
		hA, hB, up = l.hA, l.hB, l.up
	} else {
		hA, hB = a.negReadSlot(g)
		hA++
		// Point +1 on hA: one recursion applies the add and repairs
		// the internal mins, instead of a read-assign round trip.
		pos := a.nL[g].posF &^ cSegBit
		a.negAddRange(g-pos, pos, pos, 1, 0)
		up = a.nL[g].up
	}
	if hA < 0 {
		// Was ≤ −2: contribution (0,0) before and after, and no
		// eviction even if v roots its cached tree. The common case
		// costs two slot loads total.
		return
	}
	if up < 0 || a.nLeaf(up).hA <= notCachedHA/2 {
		// v's parent is absent or non-cached (sentinel): v roots its
		// cached tree, and its cap is saturated.
		a.applyEvict(v)
		return
	}
	if hA == 0 {
		// Flip −1 → 0: contribution (0,0) → (0, hB).
		a.negPropagateB(up, hB)
		return
	}
	// Was ≥ 0 and stays positive: contribution grows by (+1, 0).
	if r := a.negPropagateA(up); r != tree.None {
		a.applyEvict(r)
	}
}

// negPropagateA climbs from slot g adding +1 to hA along the maximal
// run of hA ≥ 0 ancestors; the stopping node (the nearest hA < 0
// ancestor) also absorbs the +1 and may flip to 0, which switches to a
// hB-only propagation — or triggers the eviction when it is the
// cached-tree root. By Lemma 5.1 the cached-tree root has hA < 0
// between rounds, so the run can never climb past it; crossing the
// cached boundary (sentinel slots) is therefore an invariant breach.
// Returns the saturated cached-tree root to evict, or tree.None.
func (a *TC) negPropagateA(g int32) tree.NodeID {
	for g >= 0 {
		l := a.nLeaf(g)
		if l.posF&cSegBit != 0 {
			p := l.posF &^ cSegBit
			base := g - p
			i := a.negLastNeg(base, p)
			if i < 0 {
				a.negAddRange(base, 0, p, 1, 0)
				g = a.nL[base].up
				continue
			}
			hA, hB := a.negReadSlot(base + i)
			if hA <= notCachedHA/2 {
				panic("core: positive hval run crossed the cached-tree boundary (Lemma 5.1 breach)")
			}
			a.negAddRange(base, i, p, 1, 0)
			if hA+1 != 0 {
				return tree.None // stays negative: contribution still (0,0)
			}
			return a.negFlipAt(base+i, hB)
		}
		// Uniform climb step on the record's own parent-slot pointer.
		hAold := l.hA
		if hAold <= notCachedHA/2 {
			panic("core: positive hval run crossed the cached-tree boundary (Lemma 5.1 breach)")
		}
		l.hA++
		if hAold >= 0 {
			g = l.up
			continue
		}
		if hAold != -1 {
			return tree.None // stays negative: contribution still (0,0)
		}
		return a.negFlipAt(g, l.hB)
	}
	panic("core: positive hval run reached the tree root (Lemma 5.1 breach)")
}

// negFlipAt handles the stopping node of a +1 propagation flipping
// −1 → 0 at slot g: if it is its cached tree's root the saturated cap
// must be evicted (the root is returned), otherwise the hB delta
// propagates further up and tree.None is returned.
func (a *TC) negFlipAt(g int32, hB int64) tree.NodeID {
	up := a.nL[g].up
	if up < 0 || a.nLeaf(up).hA <= notCachedHA/2 {
		return a.t.NodeAtHeavySlot(g) // saturated cached-tree root
	}
	a.negPropagateB(up, hB)
	return tree.None
}

// negPropagateB climbs from slot g adding dB to hB along the run of
// hA ≥ 0 ancestors, through the first hA < 0 node inclusive (it
// absorbs the delta into its child sums without further propagation).
// hA values are untouched, so no eviction can trigger here.
func (a *TC) negPropagateB(g int32, dB int64) {
	for g >= 0 {
		l := a.nLeaf(g)
		if l.posF&cSegBit != 0 {
			p := l.posF &^ cSegBit
			base := g - p
			i := a.negLastNeg(base, p)
			if i >= 0 {
				if hA, _ := a.negReadSlot(base + i); hA <= notCachedHA/2 {
					panic("core: hB propagation crossed the cached-tree boundary (Lemma 5.1 breach)")
				}
				a.negAddRange(base, i, p, 0, dB)
				return
			}
			a.negAddRange(base, 0, p, 0, dB)
			g = a.nL[base].up
			continue
		}
		// Uniform climb step: add dB and stop at the first hA < 0 slot
		// (it absorbs the delta without further propagation).
		if l.hA <= notCachedHA/2 {
			panic("core: hB propagation crossed the cached-tree boundary (Lemma 5.1 breach)")
		}
		l.hB += dB
		if l.hA < 0 {
			return
		}
		g = l.up
	}
	panic("core: hB propagation reached the tree root (Lemma 5.1 breach)")
}

// initHval computes hval for a just-cached node w whose cached
// children (both newly and previously cached) already have valid
// hvals: hA = cnt(w) − α + Σ⁺hA(child), hB = 1 + Σ⁺hB(child), where Σ⁺
// sums children with hA ≥ 0 (non-cached children read the sentinel and
// are skipped, but a cached node's children are always cached).
// Fetching resets w's counter, so cnt(w) = 0 here.
func (a *TC) initHval(w tree.NodeID) {
	var sa, sb int64
	for _, ch := range a.t.Children(w) {
		hA, hB := a.negRead(ch)
		if hA >= 0 {
			sa += hA
			sb += hB
		}
	}
	if a.ov != nil {
		// Cached overlay children of w are singleton cached-tree roots
		// at this point (w was non-cached), so by Lemma 5.1 their hval
		// is negative between rounds and the sum is provably zero; the
		// hook keeps the derivation uniform rather than relying on that.
		sa += a.ov.cachedChildHA(a, w)
	}
	a.negAssign(a.t.HeavySlot(w), sa-a.cfg.Alpha, 1+sb)
}

// applyEvict evicts X = H_t(r) where r is a cached-tree root with
// val_t(H_t(r)) > 0.
func (a *TC) applyEvict(r tree.NodeID) {
	// Recover H(r) by walking r's preorder interval: a node w ∈ T(r)
	// belongs to H(r) iff its parent does and val(H(w)) > 0. An
	// excluded node's whole subtree is skipped in O(1) via its
	// interval, so every node the walk reaches has an included parent
	// and the test reduces to w's own hval sign. The membership marks
	// feed the |X ∩ T(x)| bookkeeping below.
	x := a.xbuf[:0]
	inX := a.markSet(nil)
	pre := a.t.Preorder()
	lo, hi := a.t.PreorderInterval(r)
	x = append(x, r)
	inX[r] = true
	for i := lo + 1; i < hi; {
		w := pre[i]
		if hA, _ := a.negRead(w); hA >= 0 {
			x = append(x, w)
			inX[w] = true
			i++
		} else {
			_, wHi := a.t.PreorderInterval(w)
			i = wHi
		}
	}
	a.xbuf = x
	// Cached overlay leaves hanging below the evicted set with hA ≥ 0
	// belong to H(r) too (leaves with hA < 0 stay cached and become
	// roots of their own singleton cached trees, exactly like a cached
	// snapshot child outside the cap).
	nEv := 0
	if a.ov != nil {
		nEv = a.ov.collectEvictions(a, inX)
	}
	if err := a.cache.Evict(x); err != nil {
		panic("core: " + err.Error())
	}
	a.led.PayEvict(len(x) + nEv)
	// Rebuild P-aggregates bottom-up within the cap: size = |X ∩ T(x)|
	// (all other descendants remain cached), cnt = 0, so key = −α·size.
	// The evicted slots also return to the sentinel on the negative
	// side. Evicted overlay leaves count into their parent's size.
	for i := len(x) - 1; i >= 0; i-- {
		w := x[i]
		var sz int32 = 1
		for _, ch := range a.t.Children(w) {
			if inX[ch] {
				_, cs := a.posRead(a.t.HeavySlot(ch))
				sz += cs
			}
		}
		if a.ov != nil {
			sz += a.ov.evictedUnder(w)
		}
		gw := a.t.HeavySlot(w)
		a.posAssign(gw, -a.cfg.Alpha*int64(sz), sz)
		a.negAssign(gw, notCachedHA, 0)
	}
	if a.ov != nil {
		a.ov.finalizeEvictions()
	}
	a.clearSet(x, inX)
	// Ancestors of r (all non-cached) gain |X| non-cached descendants
	// with zero counters: size += |X|, key −= α·|X|.
	total := len(x) + nEv
	gr := a.t.HeavySlot(r)
	if nav := a.t.HeavyNav(gr); nav.Pos() > 0 {
		a.posRootPathAdd(gr-1, -a.cfg.Alpha*int64(total), int32(total))
	} else if nav.Up() >= 0 {
		a.posRootPathAdd(nav.Up(), -a.cfg.Alpha*int64(total), int32(total))
	}
	if a.cfg.Observer != nil {
		a.cfg.Observer.OnApply(a.round, x, false)
	}
}

// markSet returns a membership lookup seeded with x (which may be nil).
// It reuses a persistent bitmap sized to the tree to avoid per-call
// allocation.
func (a *TC) markSet(x []tree.NodeID) []bool {
	if cap(a.markBuf) < a.t.Len() {
		a.markBuf = make([]bool, a.t.Len())
	}
	m := a.markBuf[:a.t.Len()]
	for _, v := range x {
		m[v] = true
	}
	return m
}

func (a *TC) clearSet(x []tree.NodeID, m []bool) {
	for _, v := range x {
		m[v] = false
	}
}

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

// endPhase flushes the cache, charges the eviction, resets all state
// (lazily, via the epoch) and starts a new phase. wouldFetch is the
// fetch that would have overflowed; k_P = cacheLen + len(wouldFetch).
func (a *TC) endPhase(wouldFetch []tree.NodeID) {
	var evicted []tree.NodeID
	if a.cfg.Observer != nil {
		evicted = a.cache.Members()
		if a.ov != nil {
			evicted = a.ov.filterPhantoms(evicted)
		}
	}
	if n := a.effCacheLen(); n > 0 {
		a.led.PayEvict(n)
	}
	a.cache.Clear()
	if a.cfg.Observer != nil {
		a.cfg.Observer.OnPhaseEnd(a.round, evicted, wouldFetch)
	}
	a.phase++
	a.rounds = 0
	a.epoch++ // all keys and hvals (and hence counters) reset lazily
	if a.ov != nil {
		// The lazy reset restores phase-start state for the snapshot
		// shape; the overlay re-applies the live topology's deltas
		// (tombstones out, inserted leaves in).
		a.ov.afterFlush(a)
	}
}
