package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/tree"
)

// TestCounterSweepMatchesCounter pins the linear counter sweep that
// state export and rebuild read to the per-node Counter reconstruction
// on every live snapshot node, across shapes with segment-tree paths
// (deep paths, caterpillars), mid-phase epochs and a live overlay of
// inserted leaves and tombstones.
func TestCounterSweepMatchesCounter(t *testing.T) {
	shapes := []struct {
		name string
		t    *tree.Tree
	}{
		{"star", tree.Star(48)},
		{"binary", tree.CompleteKary(127, 2)},
		{"deep-path", tree.Path(160)},
		{"caterpillar", tree.Caterpillar(80, 2)},
		{"deep-random", tree.Random(rand.New(rand.NewSource(3)), 192, 3)},
	}
	for _, sh := range shapes {
		for _, capacity := range []int{4, sh.t.Len() / 2} {
			t.Run(fmt.Sprintf("%s/k=%d", sh.name, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity) + int64(sh.t.Len())))
				steps := genChurnSteps(rng, sh.t, 1500, 0.05)
				m := NewMutable(sh.t, MutableConfig{Config: Config{Alpha: 4, Capacity: capacity}, RebuildFrac: 0.5})
				for i, st := range steps {
					applyStep(t, m, st)
					if i%25 == 0 {
						checkSweep(t, m, i)
					}
				}
			})
		}
	}
}

// TestCounterSweepCachedChains serves a long path until most of it is
// cached, then mostly negative requests: their hval bumps propagate as
// range-adds over whole segment-tree nodes, the pending adds the sweep
// must carry down.
func TestCounterSweepCachedChains(t *testing.T) {
	const n = 200
	m := NewMutable(tree.Path(n), MutableConfig{Config: Config{Alpha: 2, Capacity: n}})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		k := trace.Positive
		if i >= 1000 && rng.Intn(4) != 0 {
			k = trace.Negative
		}
		m.Serve(trace.Request{Node: tree.NodeID(rng.Intn(n)), Kind: k})
		if i%20 == 0 {
			checkSweep(t, m, i)
		}
	}
}

func checkSweep(t *testing.T, m *MutableTC, op int) {
	t.Helper()
	a := m.tc
	cnt := m.sweepCounters()
	for g := 0; g < a.t.Len(); g++ {
		v := tree.NodeID(g)
		if !m.dyn.Live(m.dyn.Stable(v)) {
			continue // tombstone
		}
		if got, want := cnt[a.t.HeavySlot(v)], a.Counter(v); got != want {
			t.Fatalf("op %d: dense node %d: sweep %d, Counter %d", op, g, got, want)
		}
	}
}

// TestRestoreMutableRejectsDisorder pins the id-space checks of
// RestoreMutable: present ids must ascend strictly inside [0, NextID),
// and overlay leaves must follow every snapshot id — the order
// ExportState writes — so no accepted state can restore into an
// instance whose export the decoder would refuse.
func TestRestoreMutableRejectsDisorder(t *testing.T) {
	base := tree.CompleteKary(15, 2)
	cfg := MutableConfig{Config: Config{Alpha: 4, Capacity: 8}, RebuildFrac: 1}
	m := NewMutable(base, cfg)
	if _, err := m.Insert(3); err != nil { // overlay leaf, id 15
		t.Fatal(err)
	}
	if err := m.Delete(14); err != nil { // tombstone
		t.Fatal(err)
	}
	valid := func() *MutableState {
		st := *m.ExportState()
		st.Nodes = append([]NodeState(nil), st.Nodes...)
		return &st
	}
	if _, err := RestoreMutable(cfg, valid()); err != nil {
		t.Fatalf("exported state rejected: %v", err)
	}
	last := len(valid().Nodes) - 1
	if ov := valid().Nodes[last]; ov.ID != 15 || ov.InSnap || !ov.Live {
		t.Fatalf("last exported node %+v, want overlay leaf 15", ov)
	}
	cases := map[string]func(st *MutableState){
		"duplicate id":  func(st *MutableState) { st.Nodes[2].ID = st.Nodes[1].ID },
		"descending id": func(st *MutableState) { st.Nodes[1], st.Nodes[2] = st.Nodes[2], st.Nodes[1] },
		"id past NextID": func(st *MutableState) {
			st.Nodes[last].ID = tree.NodeID(st.NextID)
		},
		"snapshot id above an overlay leaf": func(st *MutableState) {
			st.NextID++
			st.Nodes = append(st.Nodes, NodeState{ID: tree.NodeID(st.NextID - 1), Parent: 3, Live: true, InSnap: true})
		},
		"neither live nor snapshot": func(st *MutableState) { st.Nodes[last].Live = false },
		"empty id space":            func(st *MutableState) { st.NextID = 0 },
		"id space past int32":       func(st *MutableState) { st.NextID = 1 << 31 },
	}
	for name, corrupt := range cases {
		st := valid()
		corrupt(st)
		if _, err := RestoreMutable(cfg, st); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
