// Dynamic topology: a mutable view over a sequence of immutable
// snapshots.
//
// A Tree is immutable — every index (CSR children, preorder intervals,
// heavy paths, segment skeleton) is built once. Dyn layers online rule
// insert/withdraw on top: it owns a stable node-id space that survives
// rebuilds, records mutations against the current snapshot, and
// produces the next snapshot (epoch e+1) on demand. Between rebuilds
// the serving layers keep using the current snapshot: freshly inserted
// nodes exist only in Dyn (an overlay the caller maintains), deleted
// snapshot nodes are tombstoned, and the stable↔dense maps translate
// between the external id space and the snapshot's dense numbering.
//
// Stable ids are never reused: the k-th inserted node of a Dyn's
// lifetime always receives id initialLen+k, which is what lets a
// recorded mutation trace (trace.Mutation, "+^node@parent") replay
// deterministically against a fresh instance.
package tree

import (
	"errors"
	"fmt"
	"math"
)

// ErrIDSpaceFull reports an insertion into a Dyn whose stable id space
// already holds MaxIDs ids: the next id would not fit a NodeID, and no
// snapshot codec or restore accepts a larger space.
var ErrIDSpaceFull = errors.New("tree: stable id space is full")

// MaxIDs is the largest stable id space a Dyn grows to: ids are
// non-negative NodeIDs (int32).
const MaxIDs = math.MaxInt32

// Dyn tracks a dynamic topology over an immutable snapshot. It is not
// safe for concurrent use; in the engine each shard's Dyn is confined
// to the shard's worker goroutine.
type Dyn struct {
	snap   *Tree
	dense  []NodeID // stable id -> dense snapshot id, None if not in the snapshot
	stable []NodeID // dense snapshot id -> stable id
	parent []NodeID // stable id -> stable parent id (live nodes only)
	live   []bool   // stable id -> alive in the current topology
	kids   []int32  // stable id -> number of live children
	nLive  int
	// pending counts mutations recorded since the last rebuild;
	// structural marks a mutation (mid-insert / lifting delete) that the
	// overlay cannot represent, forcing the caller to rebuild now.
	pending    int
	structural bool
	// maxIDs bounds the id space (MaxIDs; tests lower it, since a real
	// run to 2^31 ids needs about 10 GB).
	maxIDs int
}

// NewDyn returns a dynamic-topology handle whose initial snapshot is t
// (stable and dense ids coincide until the first rebuild).
func NewDyn(t *Tree) *Dyn {
	n := t.Len()
	d := &Dyn{
		snap:   t,
		dense:  make([]NodeID, n),
		stable: make([]NodeID, n),
		parent: make([]NodeID, n),
		live:   make([]bool, n),
		kids:   make([]int32, n),
		nLive:  n,
		maxIDs: MaxIDs,
	}
	for v := 0; v < n; v++ {
		d.dense[v] = NodeID(v)
		d.stable[v] = NodeID(v)
		d.parent[v] = t.Parent(NodeID(v))
		d.live[v] = true
		d.kids[v] = int32(t.Degree(NodeID(v)))
	}
	return d
}

// RestoreDyn reconstructs a dynamic-topology handle from serialized
// state: snap is the current snapshot (dense ids), stable[g] the stable
// id of dense node g, and parent/live are indexed by stable id over the
// full id space (dead ids included — stable ids are never reused, so
// the dead entries keep NextID stable across a restore). pending is the
// mutation count carried since the snapshot's rebuild. The function
// validates the id-space wiring (mapping sizes, live parents, root
// liveness) but trusts the per-entry values themselves, which the
// snapshot codec integrity-checks upstream.
func RestoreDyn(snap *Tree, stable []NodeID, parent []NodeID, live []bool, pending int) (*Dyn, error) {
	n := snap.Len()
	ids := len(live)
	if len(parent) != ids {
		return nil, fmt.Errorf("tree: restore: parent/live length mismatch (%d vs %d)", len(parent), ids)
	}
	if len(stable) != n {
		return nil, fmt.Errorf("tree: restore: stable map length %d does not match snapshot length %d", len(stable), n)
	}
	if pending < 0 {
		return nil, fmt.Errorf("tree: restore: negative pending count %d", pending)
	}
	if ids == 0 || !live[0] {
		return nil, fmt.Errorf("tree: restore: the root (stable id 0) must be live")
	}
	d := &Dyn{
		snap:    snap,
		dense:   make([]NodeID, ids),
		stable:  append([]NodeID(nil), stable...),
		parent:  append([]NodeID(nil), parent...),
		live:    append([]bool(nil), live...),
		kids:    make([]int32, ids),
		pending: pending,
		maxIDs:  MaxIDs,
	}
	for v := range d.dense {
		d.dense[v] = None
	}
	for g := 0; g < n; g++ {
		s := stable[g]
		if s < 0 || int(s) >= ids {
			return nil, fmt.Errorf("tree: restore: stable id %d of dense node %d out of range [0,%d)", s, g, ids)
		}
		if d.dense[s] != None {
			return nil, fmt.Errorf("tree: restore: stable id %d mapped to two dense nodes", s)
		}
		d.dense[s] = NodeID(g)
	}
	for v := 0; v < ids; v++ {
		if !live[v] {
			continue
		}
		d.nLive++
		if v == 0 {
			continue
		}
		p := parent[v]
		if p < 0 || int(p) >= ids || !live[p] {
			return nil, fmt.Errorf("tree: restore: live node %d has dead or out-of-range parent %d", v, p)
		}
		d.kids[p]++
	}
	return d, nil
}

// Snapshot returns the current immutable snapshot.
func (d *Dyn) Snapshot() *Tree { return d.snap }

// Epoch returns the current snapshot's topology epoch.
func (d *Dyn) Epoch() int64 { return d.snap.Epoch() }

// Pending returns the number of mutations recorded since the last
// rebuild.
func (d *Dyn) Pending() int { return d.pending }

// Structural reports whether a pending mutation reshaped interior
// structure (mid-insert or lifting delete) and the snapshot must be
// rebuilt before serving continues.
func (d *Dyn) Structural() bool { return d.structural }

// Len returns the number of live nodes of the current topology.
func (d *Dyn) Len() int { return d.nLive }

// NumIDs returns the size of the stable id space (live + dead).
func (d *Dyn) NumIDs() int { return len(d.live) }

// NextID returns the stable id the next insertion will receive.
func (d *Dyn) NextID() NodeID { return NodeID(len(d.live)) }

// Live reports whether stable id v names a node of the current
// topology.
func (d *Dyn) Live(v NodeID) bool { return v >= 0 && int(v) < len(d.live) && d.live[v] }

// Dense returns the dense snapshot id of stable id v, or None when v is
// not part of the current snapshot (inserted since the last rebuild, or
// dead).
func (d *Dyn) Dense(v NodeID) NodeID {
	if v < 0 || int(v) >= len(d.dense) {
		return None
	}
	return d.dense[v]
}

// Stable returns the stable id of dense snapshot id g.
func (d *Dyn) Stable(g NodeID) NodeID { return d.stable[g] }

// Parent returns the stable parent id of live stable node v (None for
// the root).
func (d *Dyn) Parent(v NodeID) NodeID { return d.parent[v] }

// LiveChildren returns the number of live children of stable node v.
func (d *Dyn) LiveChildren(v NodeID) int { return int(d.kids[v]) }

// Full reports whether the id space is exhausted: every further insert
// fails with ErrIDSpaceFull.
func (d *Dyn) Full() bool { return len(d.live) >= d.maxIDs }

// Insert attaches a fresh leaf under live node parent and returns its
// stable id (always NextID()). It fails, changing nothing, when the
// parent is not live or the id space is full.
func (d *Dyn) Insert(parent NodeID) (NodeID, error) {
	if !d.Live(parent) {
		return None, fmt.Errorf("tree: insert under dead or unknown node %d", parent)
	}
	if d.Full() {
		return None, fmt.Errorf("tree: insert under %d: %w (%d ids)", parent, ErrIDSpaceFull, len(d.live))
	}
	v := NodeID(len(d.live))
	d.dense = append(d.dense, None)
	d.parent = append(d.parent, parent)
	d.live = append(d.live, true)
	d.kids = append(d.kids, 0)
	d.kids[parent]++
	d.nLive++
	d.pending++
	return v, nil
}

// InsertBetween inserts a fresh node under live node parent and moves
// the given live children of parent below it (the LMP "covered
// prefixes" reparenting of the FIB application). This is a structural
// mutation: the overlay cannot represent interior insertions, so the
// caller must Rebuild before serving continues.
func (d *Dyn) InsertBetween(parent NodeID, adopt []NodeID) (NodeID, error) {
	if !d.Live(parent) {
		return None, fmt.Errorf("tree: insert under dead or unknown node %d", parent)
	}
	for _, c := range adopt {
		if !d.Live(c) || d.parent[c] != parent {
			return None, fmt.Errorf("tree: adopted node %d is not a live child of %d", c, parent)
		}
	}
	v, err := d.Insert(parent) // checks the id space before any change
	if err != nil {
		return None, err
	}
	for _, c := range adopt {
		d.parent[c] = v
		d.kids[parent]--
		d.kids[v]++
	}
	if len(adopt) > 0 {
		d.structural = true
	}
	return v, nil
}

// Delete removes live leaf v (a node with no live children) from the
// topology. The root (stable id 0) is permanent.
func (d *Dyn) Delete(v NodeID) error {
	if !d.Live(v) {
		return fmt.Errorf("tree: delete of dead or unknown node %d", v)
	}
	if v == 0 {
		return fmt.Errorf("tree: the root cannot be deleted")
	}
	if d.kids[v] != 0 {
		return fmt.Errorf("tree: delete of interior node %d (%d live children); use DeleteLift", v, d.kids[v])
	}
	d.live[v] = false
	d.kids[d.parent[v]]--
	d.nLive--
	d.pending++
	return nil
}

// DeleteLift removes live interior node v, reparenting its live
// children to v's parent, and returns those children. Like
// InsertBetween this is structural: the caller must Rebuild before
// serving continues.
func (d *Dyn) DeleteLift(v NodeID) ([]NodeID, error) {
	if !d.Live(v) {
		return nil, fmt.Errorf("tree: delete of dead or unknown node %d", v)
	}
	if v == 0 {
		return nil, fmt.Errorf("tree: the root cannot be deleted")
	}
	if d.kids[v] == 0 {
		return nil, d.Delete(v)
	}
	p := d.parent[v]
	var lifted []NodeID
	for c := range d.live {
		if d.live[c] && c != int(v) && d.parent[c] == v {
			d.parent[c] = p
			lifted = append(lifted, NodeID(c))
		}
	}
	d.kids[p] += d.kids[v]
	d.kids[v] = 0
	d.live[v] = false
	d.kids[p]--
	d.nLive--
	d.pending++
	d.structural = true
	return lifted, nil
}

// Rebuild compacts the live topology into a fresh immutable snapshot at
// epoch+1, refreshes the stable↔dense maps and clears the pending
// count. Dense ids are assigned in increasing stable order, so the root
// keeps dense id 0.
func (d *Dyn) Rebuild() *Tree {
	n := d.nLive
	parents := make([]NodeID, n)
	if cap(d.stable) < n {
		d.stable = make([]NodeID, n)
	}
	d.stable = d.stable[:n]
	g := NodeID(0)
	for v := range d.live {
		if !d.live[v] {
			d.dense[v] = None
			continue
		}
		d.dense[v] = g
		d.stable[g] = NodeID(v)
		g++
	}
	for i := NodeID(0); i < g; i++ {
		s := d.stable[i]
		if s == 0 {
			parents[i] = None
		} else {
			parents[i] = d.dense[d.parent[s]]
		}
	}
	t, err := NewAtEpoch(parents, d.snap.Epoch()+1)
	if err != nil {
		// Dyn validates every mutation, so a live topology is always a
		// single rooted tree; failing here is an internal invariant
		// breach, not caller input.
		panic("tree: rebuild of validated topology failed: " + err.Error())
	}
	d.snap = t
	d.pending = 0
	d.structural = false
	return t
}
