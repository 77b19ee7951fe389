// Package treecache is the public API of the Online Tree Caching
// library, a faithful implementation of
//
//	Bienkowski, Marcinkowski, Pacut, Schmid, Spyra:
//	"Online Tree Caching", SPAA 2017.
//
// The problem: items form a rooted tree T and the cache must always be
// a subforest of T — if a node v is cached, the entire subtree below it
// is cached too. Requests are positive (pay 1 if the node is not
// cached) or negative (pay 1 if it is; these model rule updates), and
// every single-node fetch or eviction costs α. The package provides:
//
//   - TC, the paper's O(h(T)·k_ONL/(k_ONL−k_OPT+1))-competitive
//     deterministic online algorithm, with the efficient counter
//     structures of Section 6 (O(h+max(h,deg)·|X|) per decision);
//   - tree builders and workload generators;
//   - eager baselines (LRU/FIFO/random dependent-set caching) and
//     offline optima (exact DP for small instances, best static cache
//     for large ones) to compare against;
//   - the FIB-caching application of Section 2 (IPv4 prefix tables,
//     longest-matching-prefix, controller/switch simulation).
//
// Quick start:
//
//	t := treecache.Path(8)                   // a chain of 8 rules
//	c := treecache.New(t, treecache.Options{Alpha: 4, Capacity: 6})
//	c.Request(treecache.Pos(7))              // positive request to the leaf
//	fmt.Println(c.Cost())                    // accumulated cost so far
//
// See the examples/ directory for complete programs, the repository
// README for the architecture, and cmd/experiments (experiment list in
// internal/experiments) for the paper-claim reproductions.
package treecache

import (
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// NodeID identifies a tree node; nodes are dense integers in
// [0, Tree.Len()) and node 0 is the root.
type NodeID = tree.NodeID

// None is the absent-node sentinel (e.g. parent of the root).
const None = tree.None

// Tree is an immutable rooted tree, the universe of cacheable items.
type Tree = tree.Tree

// NewTree builds a tree from a parent vector (parents[0] must be None).
func NewTree(parents []NodeID) (*Tree, error) { return tree.New(parents) }

// Path, Star, CompleteKary and Caterpillar build canonical tree shapes.
func Path(n int) *Tree                  { return tree.Path(n) }
func Star(n int) *Tree                  { return tree.Star(n) }
func CompleteKary(n, k int) *Tree       { return tree.CompleteKary(n, k) }
func Caterpillar(spine, legs int) *Tree { return tree.Caterpillar(spine, legs) }

// Request is one round's request.
type Request = trace.Request

// Trace is a request sequence.
type Trace = trace.Trace

// Pos and Neg construct positive and negative requests.
func Pos(v NodeID) Request { return trace.Pos(v) }
func Neg(v NodeID) Request { return trace.Neg(v) }

// Ledger carries the accumulated serve/move costs of an algorithm.
type Ledger = cache.Ledger

// Algorithm is the interface shared by TC, the baselines and replayed
// offline solutions; see sim.Algorithm.
type Algorithm = sim.Algorithm

// Options configures a Cache.
type Options struct {
	// Alpha is the per-node fetch/evict cost α: an even integer ≥ 2
	// (the paper's convention; model costs scale linearly in α).
	Alpha int64
	// Capacity is the cache size k_ONL ≥ 1.
	Capacity int
	// Observer optionally receives algorithm events (see package
	// internal/core); used by the analysis instrumentation.
	Observer Observer
}

// Observer receives TC's events; see core.Observer for the contract.
type Observer = core.Observer

// Mutation is one topology mutation event (rule announce/withdraw);
// see trace.Mutation and the "+^node@parent" / "-^node" trace format.
type Mutation = trace.Mutation

// InsertMut and DeleteMut construct mutation events. An insertion's
// node id may be None to let the applying instance allocate the next
// sequential id.
func InsertMut(node, parent NodeID) Mutation { return trace.InsertMut(node, parent) }
func DeleteMut(node NodeID) Mutation         { return trace.DeleteMut(node) }

// ChurnOp and ChurnTrace interleave requests with topology mutation
// events; see trace.ChurnTrace.
type ChurnOp = trace.ChurnOp
type ChurnTrace = trace.ChurnTrace

// ReadChurnTrace parses the churn text format (requests plus mutation
// events) written by ChurnTrace.Write.
var ReadChurnTrace = trace.ReadChurn

// ChurnWorkloadConfig parameterises the route-churn workload generator.
type ChurnWorkloadConfig = trace.ChurnWorkloadConfig

// ChurnWorkload generates Zipf traffic interleaved with valid
// announce/withdraw mutation events; see trace.ChurnWorkload.
var ChurnWorkload = trace.ChurnWorkload

// Cache is the user-facing handle on a running TC instance. The
// instance is dynamic: Insert and Delete mutate the rule tree while
// serving (node ids are stable across the internal snapshot rebuilds;
// see Epoch and PendingMutations).
type Cache struct {
	tc *core.MutableTC
}

// New creates a TC cache over t. It panics on invalid options (α not an
// even integer ≥ 2 or capacity < 1), mirroring the constructor
// conventions of the standard library for programmer errors.
func New(t *Tree, o Options) *Cache {
	return &Cache{tc: core.NewMutable(t, core.MutableConfig{
		Config: core.Config{Alpha: o.Alpha, Capacity: o.Capacity, Observer: o.Observer},
	})}
}

// Request serves one request and returns its serving cost (0 or 1) and
// the reorganization cost incurred at the end of the round.
func (c *Cache) Request(r Request) (serveCost, moveCost int64) { return c.tc.Serve(r) }

// Serve makes Cache itself satisfy Algorithm.
func (c *Cache) Serve(r Request) (int64, int64) { return c.tc.Serve(r) }

// ServeBatch serves a whole batch of requests — semantics identical to
// calling Request per element, in order — and returns the batch's
// total serving and movement cost. Consecutive identical requests
// (correlated bursts: α-negative update storms, repeated hits on one
// trie chain) are coalesced into closed-form counter advances, so a
// run costs O(log² n) instead of O(run·log² n). Engine shards serve
// every dispatched batch through this path.
func (c *Cache) ServeBatch(batch Trace) (serveCost, moveCost int64) { return c.tc.ServeBatch(batch) }

// MaxCacheLen returns the peak cache occupancy since the last Reset.
func (c *Cache) MaxCacheLen() int { return c.tc.MaxCacheLen() }

// Round returns the number of requests served since the last Reset. A
// request to a withdrawn rule is free and is not a round.
func (c *Cache) Round() int64 { return c.tc.Round() }

// Name implements Algorithm.
func (c *Cache) Name() string { return c.tc.Name() }

// Cached reports whether v is currently cached.
func (c *Cache) Cached(v NodeID) bool { return c.tc.Cached(v) }

// CacheLen returns the current cache occupancy.
func (c *Cache) CacheLen() int { return c.tc.CacheLen() }

// Members returns the cached nodes in ascending id order.
func (c *Cache) Members() []NodeID { return c.tc.CacheMembers() }

// AppendMembers appends the cached nodes (ascending ids) to dst and
// returns it — the snapshot variant for callers polling the cache on a
// hot path.
func (c *Cache) AppendMembers(dst []NodeID) []NodeID { return c.tc.AppendCacheMembers(dst) }

// Roots returns the roots of the maximal cached subtrees in ascending
// id order (the tops of the cached subforest).
func (c *Cache) Roots() []NodeID { return c.tc.CacheRoots() }

// ---------------------------------------------------------------------------
// Dynamic topology.
// ---------------------------------------------------------------------------

// Insert announces a fresh rule under live node parent and returns its
// id (ids are sequential and stable across snapshot rebuilds). If the
// parent is cached the new rule enters the cache with it (one α
// install).
func (c *Cache) Insert(parent NodeID) (NodeID, error) { return c.tc.Insert(parent) }

// InsertBetween announces a rule under parent, adopting the given live
// children of parent below it (the FIB application's LMP reparenting
// of covered prefixes); adoption migrates state through an immediate
// snapshot rebuild.
func (c *Cache) InsertBetween(parent NodeID, adopt []NodeID) (NodeID, error) {
	return c.tc.InsertBetween(parent, adopt)
}

// Delete withdraws live node v: a leaf settles its counter into its
// parent (a cached leaf is force-evicted, one α remove); an interior
// node's children lift to its parent through a migrating rebuild. The
// root is permanent.
func (c *Cache) Delete(v NodeID) error { return c.tc.Delete(v) }

// Apply replays one recorded mutation event.
func (c *Cache) Apply(m Mutation) error { return c.tc.Apply(m) }

// ApplyTopology replays a batch of mutation events (stopping at the
// first invalid one); it also makes Cache satisfy the engine's
// TopologyServer interface, so Engine.ApplyTopology reaches shard
// caches.
func (c *Cache) ApplyTopology(muts []Mutation) error { return c.tc.ApplyTopology(muts) }

// ServeChurn replays a churn trace (requests interleaved with mutation
// events) and returns its total serving and movement cost.
func (c *Cache) ServeChurn(ct ChurnTrace) (serveCost, moveCost int64, err error) {
	return c.tc.ServeChurn(ct)
}

// Epoch returns the topology epoch: how many state-migrating snapshot
// rebuilds the instance has absorbed.
func (c *Cache) Epoch() int64 { return c.tc.Epoch() }

// PendingMutations returns the number of mutations held by the overlay
// since the last rebuild.
func (c *Cache) PendingMutations() int { return c.tc.Pending() }

// Rebuild forces the amortized state-migrating rebuild now.
func (c *Cache) Rebuild() { c.tc.Rebuild() }

// Live reports whether id v names a live (announced, not withdrawn)
// node.
func (c *Cache) Live(v NodeID) bool { return c.tc.Dyn().Live(v) }

// Len returns the number of live nodes of the current topology.
func (c *Cache) Len() int { return c.tc.Dyn().Len() }

// Cost returns the total cost paid so far.
func (c *Cache) Cost() int64 { return c.tc.Ledger().Total() }

// Ledger returns the full cost breakdown.
func (c *Cache) Ledger() Ledger { return c.tc.Ledger() }

// Phases returns the number of completed TC phases.
func (c *Cache) Phases() int64 { return c.tc.Phase() }

// Reset restores the initial state (empty cache, zero cost).
func (c *Cache) Reset() { c.tc.Reset() }

// ---------------------------------------------------------------------------
// State snapshot / restore.
// ---------------------------------------------------------------------------

// Snapshot serializes the cache's full observable state — topology,
// cached set, per-node counters, cost ledger and phase cursors — into
// a versioned, checksummed blob. Together with Restore it satisfies
// the engine's Checkpointer interface, so a fleet built over
// snapshot-capable caches is supervised (see EngineOptions).
func (c *Cache) Snapshot() ([]byte, error) { return snapshot.Capture(c.tc) }

// Restore replaces the cache's state with the snapshot's. The
// instance's α must match the snapshot's; on any error (checksum,
// truncation, config mismatch) the current state is left untouched.
func (c *Cache) Restore(data []byte) error { return snapshot.RestoreInto(c.tc, data) }

// VerifySnapshot checks a snapshot's envelope and checksum without
// restoring it — the supervisor's accept gate for new checkpoints.
func (c *Cache) VerifySnapshot(data []byte) error { return snapshot.Verify(data) }

// RestoreCache reconstructs a fresh Cache from a snapshot blob: an
// instance equivalent to the one captured, no trace replay needed.
func RestoreCache(data []byte) (*Cache, error) {
	m, err := snapshot.Restore(data)
	if err != nil {
		return nil, err
	}
	return &Cache{tc: m}, nil
}

// ---------------------------------------------------------------------------
// Comparison algorithms and offline optima.
// ---------------------------------------------------------------------------

// EvictionPolicy selects baseline eviction behaviour.
type EvictionPolicy = baseline.Policy

// Baseline eviction policies.
const (
	LRU  = baseline.LRU
	FIFO = baseline.FIFO
	Rand = baseline.Rand
)

// NewEagerBaseline returns the dependent-set caching baseline
// (CacheFlow-style): fetch-on-miss with the given eviction policy. If
// evictOnUpdate is set, a paid update evicts the rule's path to its
// cached-tree root.
func NewEagerBaseline(t *Tree, alpha int64, capacity int, policy EvictionPolicy, evictOnUpdate bool) Algorithm {
	return baseline.NewEager(t, baseline.Config{
		Alpha: alpha, Capacity: capacity, Policy: policy, EvictOnUpdate: evictOnUpdate,
	})
}

// NewNoCache returns the bypass-everything baseline.
func NewNoCache(alpha int64) Algorithm { return baseline.NewNoCache(alpha) }

// Run serves a whole trace and returns the summary result.
func Run(a Algorithm, tr Trace) sim.Result { return sim.Run(a, tr) }

// Result summarises one run; see sim.Result.
type Result = sim.Result

// OfflineOptimum computes the exact offline optimum Opt(I) by dynamic
// programming over downward-closed cache states. It is exponential in
// the tree size and restricted to small trees (≤ 22 nodes); use
// BestStaticCache for large instances.
func OfflineOptimum(t *Tree, input Trace, capacity int, alpha int64) int64 {
	return opt.Exact(t, input, capacity, alpha).Cost
}

// BestStaticCache returns the optimal static (fetch-once) cache of the
// given capacity for the input, with its total cost. It solves the
// offline tree-sparsity knapsack in O(|T|·capacity).
func BestStaticCache(t *Tree, input Trace, capacity int, alpha int64) ([]NodeID, int64) {
	r := opt.Static(t, input, capacity, alpha)
	return r.Set, r.Cost
}
