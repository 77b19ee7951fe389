package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tree"
)

// shadowTopo mirrors the live topology of a MutableTC so tests can
// generate valid mutation streams (inserts under live nodes, deletes
// of live non-root nodes, requests to live ids) independently of the
// instances under test.
type shadowTopo struct {
	live   []bool
	kids   []int
	parent []tree.NodeID
}

func newShadow(t *tree.Tree) *shadowTopo {
	n := t.Len()
	s := &shadowTopo{live: make([]bool, n), kids: make([]int, n), parent: make([]tree.NodeID, n)}
	for v := 0; v < n; v++ {
		s.live[v] = true
		s.kids[v] = t.Degree(tree.NodeID(v))
		s.parent[v] = t.Parent(tree.NodeID(v))
	}
	return s
}

func (s *shadowTopo) pickLive(rng *rand.Rand) tree.NodeID {
	for {
		v := tree.NodeID(rng.Intn(len(s.live)))
		if s.live[v] {
			return v
		}
	}
}

// pickDeletable returns a live non-root node, preferring leaves (2/3)
// but sometimes an interior node (exercising the lifting delete), or
// None when only the root is left.
func (s *shadowTopo) pickDeletable(rng *rand.Rand) tree.NodeID {
	nLive := 0
	for v := 1; v < len(s.live); v++ {
		if s.live[v] {
			nLive++
		}
	}
	if nLive == 0 {
		return tree.None
	}
	wantLeaf := rng.Intn(3) != 0
	for try := 0; try < 4*len(s.live); try++ {
		v := 1 + rng.Intn(len(s.live)-1)
		if !s.live[v] {
			continue
		}
		if wantLeaf == (s.kids[v] == 0) {
			return tree.NodeID(v)
		}
	}
	for v := 1; v < len(s.live); v++ {
		if s.live[v] {
			return tree.NodeID(v)
		}
	}
	return tree.None
}

func (s *shadowTopo) insert(parent tree.NodeID) tree.NodeID {
	v := tree.NodeID(len(s.live))
	s.live = append(s.live, true)
	s.kids = append(s.kids, 0)
	s.parent = append(s.parent, parent)
	s.kids[parent]++
	return v
}

func (s *shadowTopo) delete(v tree.NodeID) {
	p := s.parent[v]
	if s.kids[v] > 0 { // lifting delete
		for c := range s.live {
			if s.live[c] && s.parent[c] == v {
				s.parent[c] = p
				s.kids[p]++
			}
		}
	}
	s.live[v] = false
	s.kids[p]--
}

// churnStep is one operation of a generated churn stream.
type churnStep struct {
	isMut  bool
	insert bool
	node   tree.NodeID // request target / delete target / insert parent
	kind   trace.Kind
}

// genChurnSteps draws nOps operations: mutFrac of them mutations
// (half inserts, half deletes incl. interior lifts), the rest mixed
// requests to live nodes.
func genChurnSteps(rng *rand.Rand, t *tree.Tree, nOps int, mutFrac float64) []churnStep {
	sh := newShadow(t)
	steps := make([]churnStep, 0, nOps)
	for len(steps) < nOps {
		if rng.Float64() < mutFrac {
			if rng.Intn(2) == 0 {
				p := sh.pickLive(rng)
				sh.insert(p)
				steps = append(steps, churnStep{isMut: true, insert: true, node: p})
			} else if v := sh.pickDeletable(rng); v != tree.None {
				sh.delete(v)
				steps = append(steps, churnStep{isMut: true, node: v})
			}
			continue
		}
		k := trace.Positive
		if rng.Intn(2) == 0 {
			k = trace.Negative
		}
		steps = append(steps, churnStep{node: sh.pickLive(rng), kind: k})
	}
	return steps
}

// applyStep applies one step to a MutableTC, returning the (serve,
// move) cost pair. Mutations report their movement cost via the
// ledger delta.
func applyStep(t *testing.T, m *MutableTC, st churnStep) (int64, int64) {
	t.Helper()
	if !st.isMut {
		return m.Serve(trace.Request{Node: st.node, Kind: st.kind})
	}
	before := m.Ledger()
	var err error
	if st.insert {
		_, err = m.Insert(st.node)
	} else {
		err = m.Delete(st.node)
	}
	if err != nil {
		t.Fatalf("mutation %+v failed: %v", st, err)
	}
	after := m.Ledger()
	return after.Serve - before.Serve, after.Move - before.Move
}

func sameNodeIDs(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runChurnDifferential replays one step stream on three MutableTC
// configurations — lazy overlay (default rebuild fraction), eager
// (state-migrating rebuild after every mutation: the "rebuilt from
// scratch on the current topology with migrated state" oracle), and
// hoarding (never auto-rebuilds) — asserting identical per-op costs,
// phases, occupancy and, at every mutation and at the end, identical
// counters and cache contents.
func runChurnDifferential(t *testing.T, tr *tree.Tree, cfg Config, steps []churnStep) {
	t.Helper()
	lazy := NewMutable(tr, MutableConfig{Config: cfg})
	eager := NewMutable(tr, MutableConfig{Config: cfg, RebuildFrac: 1e-12})
	hoard := NewMutable(tr, MutableConfig{Config: cfg, RebuildFrac: 1e12})
	insts := []*MutableTC{lazy, eager, hoard}
	names := []string{"lazy", "eager", "hoard"}
	for i, st := range steps {
		s0, m0 := applyStep(t, insts[0], st)
		for j := 1; j < len(insts); j++ {
			s, m := applyStep(t, insts[j], st)
			if s != s0 || m != m0 {
				t.Fatalf("op %d %+v: %s cost (%d,%d) != %s cost (%d,%d)", i, st, names[j], s, m, names[0], s0, m0)
			}
			if insts[j].Phase() != insts[0].Phase() || insts[j].CacheLen() != insts[0].CacheLen() {
				t.Fatalf("op %d %+v: %s phase/occupancy (%d,%d) != %s (%d,%d)", i, st,
					names[j], insts[j].Phase(), insts[j].CacheLen(), names[0], insts[0].Phase(), insts[0].CacheLen())
			}
		}
		if st.isMut {
			compareChurnState(t, insts, names, i)
		}
	}
	compareChurnState(t, insts, names, len(steps))
	// The literal acceptance check: rebuilding the lazy instance from
	// scratch on the final topology (with migrated state) changes
	// nothing observable.
	membersBefore := lazy.CacheMembers()
	lazy.Rebuild()
	if !sameNodeIDs(membersBefore, lazy.CacheMembers()) {
		t.Fatalf("final forced rebuild changed the cache: %v -> %v", membersBefore, lazy.CacheMembers())
	}
	if lazy.Ledger() != eager.Ledger() {
		t.Fatalf("ledgers diverged: lazy %+v, eager %+v", lazy.Ledger(), eager.Ledger())
	}
}

func compareChurnState(t *testing.T, insts []*MutableTC, names []string, op int) {
	t.Helper()
	base := insts[0]
	mem0 := base.CacheMembers()
	for j := 1; j < len(insts); j++ {
		if mem := insts[j].CacheMembers(); !sameNodeIDs(mem0, mem) {
			t.Fatalf("after op %d: %s cache %v != %s cache %v", op, names[j], mem, names[0], mem0)
		}
	}
	ids := base.Dyn().NumIDs()
	for v := 0; v < ids; v++ {
		sv := tree.NodeID(v)
		if !base.Dyn().Live(sv) {
			continue
		}
		c0 := base.Counter(sv)
		for j := 1; j < len(insts); j++ {
			if c := insts[j].Counter(sv); c != c0 {
				t.Fatalf("after op %d: counter(%d): %s %d != %s %d", op, v, names[j], c, names[0], c0)
			}
		}
	}
}

// TestChurnDifferential pins overlay serving against the
// rebuild-from-scratch oracle on deterministic mixed serve/mutation
// streams over the canonical shapes, including deep shapes whose
// heavy-path decomposition splits and merges across epoch rebuilds.
func TestChurnDifferential(t *testing.T) {
	shapes := []struct {
		name string
		t    *tree.Tree
		ops  int
	}{
		{"star", tree.Star(48), 1500},
		{"path", tree.Path(48), 1500},
		{"binary", tree.CompleteKary(63, 2), 1500},
		{"deep-path", tree.Path(160), 1200},
		{"caterpillar", tree.Caterpillar(80, 2), 1200},
		{"deep-random", tree.Random(rand.New(rand.NewSource(3)), 192, 3), 1200},
	}
	for _, sh := range shapes {
		for _, capacity := range []int{4, sh.t.Len() / 2, 2 * sh.t.Len()} {
			for _, mutFrac := range []float64{0.02, 0.25} {
				name := fmt.Sprintf("%s/k=%d/mut=%g", sh.name, capacity, mutFrac)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))*7919 + int64(capacity)))
					steps := genChurnSteps(rng, sh.t, sh.ops, mutFrac)
					runChurnDifferential(t, sh.t, Config{Alpha: 4, Capacity: capacity}, steps)
				})
			}
		}
	}
}

// TestChurnHeavyPathSplitMerge drives the specific reshape the ISSUE
// calls out: a long heavy path that splits (a growing side branch
// overtakes the spine's subtree sizes, so the rebuilt decomposition
// re-routes the heavy chain) and later merges back when the branch is
// withdrawn. Deterministic, with serves straddling each epoch rebuild.
func TestChurnHeavyPathSplitMerge(t *testing.T) {
	spine := 2 * tree.FlatPathMax // long enough to carry segment trees
	base := tree.Path(spine)
	cfg := Config{Alpha: 4, Capacity: spine}
	rng := rand.New(rand.NewSource(11))
	var steps []churnStep
	sh := newShadow(base)
	attach := tree.NodeID(spine / 2)
	// Grow a side branch of 2·FlatPathMax leaves-chained under the
	// spine's midpoint: after the rebuild it outweighs the lower spine
	// and becomes the heavy child, splitting the original path.
	branch := attach
	for i := 0; i < 2*tree.FlatPathMax; i++ {
		steps = append(steps, churnStep{isMut: true, insert: true, node: branch})
		branch = sh.insert(branch)
		for j := 0; j < 3; j++ {
			steps = append(steps, churnStep{node: sh.pickLive(rng), kind: trace.Positive})
			steps = append(steps, churnStep{node: sh.pickLive(rng), kind: trace.Negative})
		}
	}
	// Withdraw the branch tip-first so the decomposition merges back.
	for v := branch; v != attach; {
		p := sh.parent[v]
		steps = append(steps, churnStep{isMut: true, node: v})
		sh.delete(v)
		for j := 0; j < 3; j++ {
			steps = append(steps, churnStep{node: sh.pickLive(rng), kind: trace.Positive})
		}
		v = p
	}
	runChurnDifferential(t, base, cfg, steps)
}

// TestMutableTransparent asserts that a MutableTC with no mutations is
// observationally identical to a static TC on the same trace.
func TestMutableTransparent(t *testing.T) {
	tr := tree.Caterpillar(256, 2)
	cfg := Config{Alpha: 8, Capacity: 300}
	rng := rand.New(rand.NewSource(5))
	input := trace.RandomMixed(rng, tr, 20000)
	static := New(tr, cfg)
	dyn := NewMutable(tr, MutableConfig{Config: cfg})
	for i, req := range input {
		s1, m1 := static.Serve(req)
		s2, m2 := dyn.Serve(req)
		if s1 != s2 || m1 != m2 {
			t.Fatalf("round %d: static (%d,%d) != mutable (%d,%d)", i, s1, m1, s2, m2)
		}
	}
	if static.Ledger() != dyn.Ledger() || static.Phase() != dyn.Phase() {
		t.Fatalf("ledger/phase diverged: %+v/%d vs %+v/%d",
			static.Ledger(), static.Phase(), dyn.Ledger(), dyn.Phase())
	}
	statMem := static.CacheMembers()
	sort.Slice(statMem, func(i, j int) bool { return statMem[i] < statMem[j] })
	if !sameNodeIDs(statMem, dyn.CacheMembers()) {
		t.Fatalf("caches diverged")
	}
	if static.MaxCacheLen() != dyn.MaxCacheLen() {
		t.Fatalf("peak occupancy diverged: %d vs %d", static.MaxCacheLen(), dyn.MaxCacheLen())
	}
}

// TestMutableBatchMatchesServe pins the dynamic batched path (span
// translation + run coalescing) against per-request serving across
// interleaved mutations.
func TestMutableBatchMatchesServe(t *testing.T) {
	tr := tree.CompleteKary(127, 2)
	cfg := Config{Alpha: 4, Capacity: 64}
	rng := rand.New(rand.NewSource(9))
	a := NewMutable(tr, MutableConfig{Config: cfg})
	b := NewMutable(tr, MutableConfig{Config: cfg})
	sh := newShadow(tr)
	for round := 0; round < 60; round++ {
		// A batch with runs (the coalescing path) over live nodes.
		var batch trace.Trace
		for len(batch) < 256 {
			v := sh.pickLive(rng)
			req := trace.Pos(v)
			if rng.Intn(2) == 0 {
				req = trace.Neg(v)
			}
			run := 1 + rng.Intn(12)
			for j := 0; j < run && len(batch) < 256; j++ {
				batch = append(batch, req)
			}
		}
		sA, mA := a.ServeBatch(batch)
		var sB, mB int64
		for _, req := range batch {
			s, m := b.Serve(req)
			sB += s
			mB += m
		}
		if sA != sB || mA != mB {
			t.Fatalf("round %d: batch (%d,%d) != per-request (%d,%d)", round, sA, mA, sB, mB)
		}
		// A couple of mutations between batches.
		for k := 0; k < 2; k++ {
			if rng.Intn(2) == 0 {
				p := sh.pickLive(rng)
				sh.insert(p)
				if _, err := a.Insert(p); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Insert(p); err != nil {
					t.Fatal(err)
				}
			} else if v := sh.pickDeletable(rng); v != tree.None {
				sh.delete(v)
				if err := a.Delete(v); err != nil {
					t.Fatal(err)
				}
				if err := b.Delete(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !sameNodeIDs(a.CacheMembers(), b.CacheMembers()) {
			t.Fatalf("round %d: caches diverged", round)
		}
	}
	if a.Ledger() != b.Ledger() {
		t.Fatalf("ledgers diverged: %+v vs %+v", a.Ledger(), b.Ledger())
	}
}

// TestMutableStructural exercises the eager-migration mutations
// directly: interior insertion with adopted children (LMP reparenting)
// and interior withdrawal with lifted children, interleaved with
// serves, against the eager oracle.
func TestMutableStructural(t *testing.T) {
	base := tree.CompleteKary(40, 3)
	cfg := Config{Alpha: 4, Capacity: 30}
	lazy := NewMutable(base, MutableConfig{Config: cfg})
	eager := NewMutable(base, MutableConfig{Config: cfg, RebuildFrac: 1e-12})
	rng := rand.New(rand.NewSource(21))
	serveBoth := func(n int) {
		for i := 0; i < n; i++ {
			v := tree.NodeID(rng.Intn(40))
			req := trace.Pos(v)
			if rng.Intn(3) == 0 {
				req = trace.Neg(v)
			}
			s1, m1 := lazy.Serve(req)
			s2, m2 := eager.Serve(req)
			if s1 != s2 || m1 != m2 {
				t.Fatalf("serve diverged on %v: (%d,%d) vs (%d,%d)", req, s1, m1, s2, m2)
			}
		}
	}
	serveBoth(200)
	// Interpose a new rule between node 1 and two of its children.
	kids := append([]tree.NodeID(nil), base.Children(1)...)
	if len(kids) < 2 {
		t.Fatalf("test tree too thin")
	}
	adopt := kids[:2]
	v1, err := lazy.InsertBetween(1, adopt)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := eager.InsertBetween(1, adopt)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("stable ids diverged: %d vs %d", v1, v2)
	}
	if lazy.Epoch() == 0 {
		t.Fatalf("structural insert did not rebuild")
	}
	serveBoth(300)
	// Withdraw the interposed rule again: its children lift back.
	if err := lazy.Delete(v1); err != nil {
		t.Fatal(err)
	}
	if err := eager.Delete(v1); err != nil {
		t.Fatal(err)
	}
	serveBoth(300)
	// Withdraw an interior seed rule (children lift to the root).
	if err := lazy.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := eager.Delete(1); err != nil {
		t.Fatal(err)
	}
	serveBoth(300)
	if lazy.Ledger() != eager.Ledger() {
		t.Fatalf("ledgers diverged: %+v vs %+v", lazy.Ledger(), eager.Ledger())
	}
	if !sameNodeIDs(lazy.CacheMembers(), eager.CacheMembers()) {
		t.Fatalf("caches diverged: %v vs %v", lazy.CacheMembers(), eager.CacheMembers())
	}
}

// TestMutableNetGrowth regression-pins the migration-buffer capacity
// guards: appends round []int64 and []bool to different size-class
// capacities, so net-growing churn used to reach a window where
// cap(cntS) covered NumIDs but cap(cachedS) did not and flushState
// panicked re-slicing. Grow a 4096-node tree by >50% through repeated
// announces (InsertBetween included) across many rebuilds.
func TestMutableNetGrowth(t *testing.T) {
	base := tree.CompleteKary(4096, 2)
	m := NewMutable(base, MutableConfig{Config: Config{Alpha: 4, Capacity: 1024}})
	rng := rand.New(rand.NewSource(77))
	if _, err := m.InsertBetween(1, append([]tree.NodeID(nil), base.Children(1)[:1]...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2500; i++ {
		if _, err := m.Insert(tree.NodeID(rng.Intn(4096))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			m.Serve(trace.Pos(tree.NodeID(rng.Intn(4096))))
		}
	}
	m.Rebuild()
	if m.Snapshot().Len() != m.Dyn().Len() {
		t.Fatalf("rebuilt snapshot %d nodes, live %d", m.Snapshot().Len(), m.Dyn().Len())
	}
}

// idObserver records the node id of every OnRequest event.
type idObserver struct {
	NopObserver
	ids []tree.NodeID
}

func (o *idObserver) OnRequest(_ int64, v tree.NodeID, _ trace.Kind, _ bool) {
	o.ids = append(o.ids, v)
}

// TestMutableObserverStableIDs pins the observer id space: across
// epoch rebuilds (which renumber the snapshot's dense ids), OnRequest
// must keep reporting the stable ids the caller served with.
func TestMutableObserverStableIDs(t *testing.T) {
	obs := &idObserver{}
	m := NewMutable(tree.Path(32), MutableConfig{
		Config:      Config{Alpha: 4, Capacity: 16, Observer: obs},
		RebuildFrac: 1e-12, // rebuild (and renumber) after every mutation
	})
	rng := rand.New(rand.NewSource(1))
	sh := newShadow(tree.Path(32))
	var served []tree.NodeID
	for i := 0; i < 400; i++ {
		switch i % 8 {
		case 3:
			sh.insert(sh.pickLive(rng))
			if _, err := m.Insert(sh.parent[len(sh.parent)-1]); err != nil {
				t.Fatal(err)
			}
		case 6:
			if v := sh.pickDeletable(rng); v != tree.None {
				sh.delete(v)
				if err := m.Delete(v); err != nil {
					t.Fatal(err)
				}
			}
		default:
			v := sh.pickLive(rng)
			served = append(served, v)
			m.Serve(trace.Pos(v))
		}
	}
	if m.Epoch() == 0 {
		t.Fatal("no rebuild happened")
	}
	if len(obs.ids) != len(served) {
		t.Fatalf("observer saw %d requests, served %d", len(obs.ids), len(served))
	}
	for i := range served {
		if obs.ids[i] != served[i] {
			t.Fatalf("request %d: observer saw id %d, served stable id %d", i, obs.ids[i], served[i])
		}
	}
}

// TestMutableErrors pins the mutation validation surface.
func TestMutableErrors(t *testing.T) {
	m := NewMutable(tree.Path(4), MutableConfig{Config: Config{Alpha: 2, Capacity: 4}})
	if err := m.Delete(0); err == nil {
		t.Fatal("root delete accepted")
	}
	if _, err := m.Insert(99); err == nil {
		t.Fatal("insert under unknown node accepted")
	}
	v, err := m.Insert(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(v); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(v); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := m.Insert(v); err == nil {
		t.Fatal("insert under dead node accepted")
	}
	if err := m.Apply(trace.InsertMut(2, 0)); err == nil {
		t.Fatal("non-sequential insertion id accepted")
	}
	if err := m.Apply(trace.InsertMut(m.Dyn().NextID(), 0)); err != nil {
		t.Fatal(err)
	}
}

// FuzzChurnDifferential decodes arbitrary bytes into an interleaved
// serve/mutation stream over a small tree and asserts the lazy overlay
// instance matches the rebuild-from-scratch oracle exactly. Run with
//
//	go test -fuzz FuzzChurnDifferential ./internal/core
//
// for continuous fuzzing; plain `go test` executes the seed corpus.
func FuzzChurnDifferential(f *testing.F) {
	f.Add([]byte{7, 0, 2, 1, 2, 3, 240, 5, 6, 250, 8, 9})
	f.Add([]byte{12, 1, 4, 200, 199, 244, 0, 1, 2, 3, 255, 16})
	f.Add([]byte{5, 2, 2, 0, 0, 0, 128, 241, 128, 128, 245})
	f.Add([]byte{16, 3, 6, 255, 254, 1, 2, 250, 3, 249, 248, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		n := 2 + int(data[0])%12
		var tr *tree.Tree
		switch data[1] % 4 {
		case 0:
			tr = tree.Path(n)
		case 1:
			tr = tree.Star(n)
		case 2:
			tr = tree.CompleteKary(n, 2)
		default:
			tr = tree.CompleteKary(n, 3)
		}
		alpha := int64(2 * (1 + int(data[2])%3))
		capa := 1 + int(data[2]/4)%n
		cfg := Config{Alpha: alpha, Capacity: capa}
		lazy := NewMutable(tr, MutableConfig{Config: cfg})
		eager := NewMutable(tr, MutableConfig{Config: cfg, RebuildFrac: 1e-12})
		sh := newShadow(tr)
		rng := rand.New(rand.NewSource(int64(n)))
		for i, b := range data[3:] {
			var st churnStep
			switch {
			case b >= 250: // insert
				st = churnStep{isMut: true, insert: true, node: sh.pickLive(rng)}
				sh.insert(st.node)
			case b >= 240: // delete (leaf or lifting)
				v := sh.pickDeletable(rng)
				if v == tree.None {
					continue
				}
				st = churnStep{isMut: true, node: v}
				sh.delete(v)
			default:
				k := trace.Positive
				if b&0x80 != 0 {
					k = trace.Negative
				}
				st = churnStep{node: sh.pickLive(rng), kind: k}
			}
			s1, m1 := applyStep(t, lazy, st)
			s2, m2 := applyStep(t, eager, st)
			if s1 != s2 || m1 != m2 {
				t.Fatalf("op %d %+v: lazy (%d,%d) != eager (%d,%d)", i, st, s1, m1, s2, m2)
			}
			if lazy.CacheLen() != eager.CacheLen() || lazy.Phase() != eager.Phase() {
				t.Fatalf("op %d: occupancy/phase diverged", i)
			}
		}
		if !sameNodeIDs(lazy.CacheMembers(), eager.CacheMembers()) {
			t.Fatalf("final caches differ: %v vs %v", lazy.CacheMembers(), eager.CacheMembers())
		}
		if lazy.Ledger() != eager.Ledger() {
			t.Fatalf("ledgers differ: %+v vs %+v", lazy.Ledger(), eager.Ledger())
		}
	})
}

// TestDeleteLiftEvictsSaturatedCap pins the eviction a lifting
// withdrawal can saturate. On the path 0-…-5 with α 2 and {2,…,5}
// cached at counters 1, 2, 0, 3, the hvals are hA(5) = 1, hA(4) = −1,
// hA(3) = 0, hA(2) = −1: node 4 absorbs 5's contribution and the
// cached-tree root 2 stays negative. Withdrawing 4 lifts 5 under 3,
// so hA(3) = 1 and hA(2) = 0: H(2) = {2, 3, 5} is saturated and must
// be evicted with the withdrawal. Without that, the next negative
// request to 5 climbed past the root and panicked (a Lemma 5.1
// breach).
func TestDeleteLiftEvictsSaturatedCap(t *testing.T) {
	cfg := MutableConfig{Config: Config{Alpha: 2, Capacity: 8}}
	st := &MutableState{NextID: 6, Led: cache.Ledger{Alpha: 2}}
	for v, c := range []int64{0, 0, 1, 2, 0, 3} {
		id := tree.NodeID(v)
		st.Nodes = append(st.Nodes, NodeState{ID: id, Parent: id - 1, Cnt: c, Live: true, InSnap: true, Cached: v >= 2})
	}
	st.Nodes[0].Parent = tree.None
	m, err := RestoreMutable(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(4); err != nil {
		t.Fatal(err)
	}
	if got := m.CacheMembers(); len(got) != 0 {
		t.Fatalf("cache after the lift: %v, want the saturated cap {2,3,5} evicted", got)
	}
	if led := m.Ledger(); led.Evicted != 4 {
		t.Fatalf("evicted %d nodes, want 4 (the withdrawn rule and H(2))", led.Evicted)
	}
	m.Serve(trace.Neg(5)) // unpaid now; it used to panic
	if m.Ledger().Serve != 0 {
		t.Fatalf("a request to an evicted node paid: %+v", m.Ledger())
	}
}
