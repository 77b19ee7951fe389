package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		parents []NodeID
	}{
		{"empty", nil},
		{"root-has-parent", []NodeID{0}},
		{"out-of-range", []NodeID{None, 5}},
		{"self-parent", []NodeID{None, 1}},
		{"two-roots-unreachable", []NodeID{None, None}},
		{"cycle", []NodeID{None, 2, 1}},
	}
	for _, c := range cases {
		if _, err := New(c.parents); err == nil {
			t.Fatalf("%s: New accepted invalid input %v", c.name, c.parents)
		}
	}
}

func TestPathShape(t *testing.T) {
	p := Path(5)
	if p.Len() != 5 || p.Height() != 4 || p.MaxDegree() != 1 {
		t.Fatalf("path(5): %v", p)
	}
	for v := 1; v < 5; v++ {
		if p.Parent(NodeID(v)) != NodeID(v-1) {
			t.Fatalf("path parent(%d) = %d", v, p.Parent(NodeID(v)))
		}
		if p.Depth(NodeID(v)) != v {
			t.Fatalf("path depth(%d) = %d", v, p.Depth(NodeID(v)))
		}
	}
	if p.SubtreeSize(0) != 5 || p.SubtreeSize(4) != 1 {
		t.Fatal("path subtree sizes wrong")
	}
	if len(p.Leaves()) != 1 || p.Leaves()[0] != 4 {
		t.Fatalf("path leaves = %v", p.Leaves())
	}
}

func TestStarShape(t *testing.T) {
	s := Star(6)
	if s.Len() != 6 || s.Height() != 1 || s.MaxDegree() != 5 {
		t.Fatalf("star(6): %v", s)
	}
	if len(s.Leaves()) != 5 {
		t.Fatalf("star leaves = %v", s.Leaves())
	}
}

func TestCompleteKaryShape(t *testing.T) {
	b := CompleteKary(7, 2)
	if b.Height() != 2 || b.MaxDegree() != 2 {
		t.Fatalf("binary(7): %v", b)
	}
	if b.Parent(3) != 1 || b.Parent(6) != 2 {
		t.Fatal("binary parents wrong")
	}
	tern := CompleteKary(13, 3)
	if tern.Height() != 2 || tern.MaxDegree() != 3 {
		t.Fatalf("ternary(13): %v", tern)
	}
}

func TestCaterpillarShape(t *testing.T) {
	c := Caterpillar(4, 2)
	if c.Len() != 12 {
		t.Fatalf("caterpillar size %d, want 12", c.Len())
	}
	if c.Height() != 4 { // spine 0-1-2-3 plus a leg at 3
		t.Fatalf("caterpillar height %d, want 4", c.Height())
	}
}

// TestFromShape pins the command-line shape table: each name's size,
// height and branching, and the inputs it rejects.
func TestFromShape(t *testing.T) {
	for _, tc := range []struct {
		shape               string
		n, len, height, deg int
	}{
		{"path", 5, 5, 4, 1},
		{"star", 5, 5, 1, 4},
		{"binary", 7, 7, 2, 2},
		{"ternary", 13, 13, 2, 3},
		{"caterpillar", 10, 9, 3, 3},
		{"caterpillar", 1, 3, 1, 2},
		{"path", 1, 1, 0, 0},
	} {
		tr, err := FromShape(rand.New(rand.NewSource(1)), tc.shape, tc.n)
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.shape, tc.n, err)
		}
		if tr.Len() != tc.len || tr.Height() != tc.height || tr.MaxDegree() != tc.deg {
			t.Errorf("%s/%d: len %d height %d maxDeg %d, want %d %d %d",
				tc.shape, tc.n, tr.Len(), tr.Height(), tr.MaxDegree(), tc.len, tc.height, tc.deg)
		}
	}
	// random draws from the rng: the same seed gives the same tree.
	a, _ := FromShape(rand.New(rand.NewSource(7)), "random", 50)
	b, _ := FromShape(rand.New(rand.NewSource(7)), "random", 50)
	for v := NodeID(0); v < 50; v++ {
		if a.Parent(v) != b.Parent(v) {
			t.Fatalf("random shape differs at node %d for one seed", v)
		}
	}
	for _, bad := range []struct {
		shape string
		n     int
	}{{"binary", 0}, {"path", -1}, {"random", 0}, {"hexagon", 10}} {
		if _, err := FromShape(rand.New(rand.NewSource(1)), bad.shape, bad.n); err == nil {
			t.Errorf("FromShape(%q, %d) built a tree", bad.shape, bad.n)
		}
	}
}

func TestTwoSubtrees(t *testing.T) {
	tr, root, r1, r2 := TwoSubtrees(7)
	if tr.Len() != 15 || root != 0 {
		t.Fatalf("TwoSubtrees(7): %v", tr)
	}
	if tr.SubtreeSize(r1) != 7 || tr.SubtreeSize(r2) != 7 {
		t.Fatalf("subtree sizes %d, %d; want 7, 7", tr.SubtreeSize(r1), tr.SubtreeSize(r2))
	}
	if tr.Parent(r1) != root || tr.Parent(r2) != root {
		t.Fatal("subtree roots must hang off the root")
	}
}

func TestPreorderContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for inst := 0; inst < 50; inst++ {
		tr := RandomShape(rng, 2+rng.Intn(40))
		pre := tr.Preorder()
		if len(pre) != tr.Len() || pre[0] != tr.Root() {
			t.Fatalf("preorder malformed: %v", pre)
		}
		for _, v := range pre {
			i := tr.PreorderIndex(v)
			if pre[i] != v {
				t.Fatalf("preIndex inconsistent for %d", v)
			}
			// Subtree occupies positions [i, i+size).
			sub := tr.Subtree(v)
			if len(sub) != tr.SubtreeSize(v) {
				t.Fatalf("Subtree(%d) size %d, want %d", v, len(sub), tr.SubtreeSize(v))
			}
			for _, u := range sub {
				if !tr.IsAncestorOrSelf(v, u) {
					t.Fatalf("node %d in Subtree(%d) but not a descendant", u, v)
				}
			}
		}
	}
}

func TestIsAncestorOrSelfMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	tr := RandomShape(rng, 30)
	walk := func(u, v NodeID) bool {
		for v != None {
			if v == u {
				return true
			}
			v = tr.Parent(v)
		}
		return false
	}
	for i := 0; i < 500; i++ {
		u := NodeID(rng.Intn(30))
		v := NodeID(rng.Intn(30))
		if tr.IsAncestorOrSelf(u, v) != walk(u, v) {
			t.Fatalf("IsAncestorOrSelf(%d,%d) disagrees with parent walk", u, v)
		}
	}
}

func TestAncestors(t *testing.T) {
	p := Path(4)
	got := p.Ancestors(3)
	want := []NodeID{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Ancestors(3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ancestors(3) = %v, want %v", got, want)
		}
	}
	up := p.AppendAncestors(nil, 3)
	for i := range want {
		if up[i] != want[len(want)-1-i] {
			t.Fatalf("AppendAncestors(3) = %v (want reverse of %v)", up, want)
		}
	}
}

func TestIsTreeCap(t *testing.T) {
	b := CompleteKary(7, 2)
	cases := []struct {
		root    NodeID
		members []NodeID
		want    bool
	}{
		{0, []NodeID{0}, true},
		{0, []NodeID{0, 1}, true},
		{0, []NodeID{0, 1, 2, 3}, true},
		{1, []NodeID{1, 3, 4}, true},
		{0, []NodeID{1}, false},         // missing root
		{0, []NodeID{0, 3}, false},      // gap: 3's parent 1 missing
		{1, []NodeID{1, 2}, false},      // 2 outside T(1)
		{0, nil, false},                 // empty
		{2, []NodeID{2, 5, 6}, true},    // full subtree is a cap
		{0, []NodeID{0, 2, 5, 6}, true}, // lopsided cap
		{0, []NodeID{0, 0}, true},       // duplicate tolerated by map
	}
	for i, c := range cases {
		if got := b.IsTreeCap(c.root, c.members); got != c.want {
			t.Fatalf("case %d: IsTreeCap(%d, %v) = %v, want %v", i, c.root, c.members, got, c.want)
		}
	}
}

func TestIsSubforest(t *testing.T) {
	b := CompleteKary(7, 2)
	if !b.IsSubforest(nil) {
		t.Fatal("empty set is a subforest")
	}
	if !b.IsSubforest([]NodeID{3}) || !b.IsSubforest([]NodeID{1, 3, 4}) || !b.IsSubforest([]NodeID{3, 5}) {
		t.Fatal("valid subforests rejected")
	}
	if b.IsSubforest([]NodeID{1}) || b.IsSubforest([]NodeID{0, 1, 3, 4, 2, 5}) {
		t.Fatal("non-downward-closed sets accepted")
	}
}

func TestCapMembers(t *testing.T) {
	b := CompleteKary(7, 2)
	sz, err := b.CapMembers(0, []NodeID{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sz[0] != 3 || sz[1] != 2 || sz[3] != 1 {
		t.Fatalf("CapMembers sizes = %v", sz)
	}
	if _, err := b.CapMembers(0, []NodeID{0, 3}); err == nil {
		t.Fatal("CapMembers accepted a non-cap")
	}
}

// TestSubtreeSizesSumProperty: for any random tree, the root subtree
// size is n and sizes satisfy size(v) = 1 + Σ size(children).
func TestSubtreeSizesSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		tr := RandomShape(r, n)
		if tr.SubtreeSize(tr.Root()) != n {
			return false
		}
		for v := 0; v < n; v++ {
			s := 1
			for _, c := range tr.Children(NodeID(v)) {
				s += tr.SubtreeSize(c)
			}
			if s != tr.SubtreeSize(NodeID(v)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDepthParentProperty: depth(v) = depth(parent)+1 on random trees.
func TestDepthParentProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := RandomShape(r, 1+r.Intn(50))
		for v := 1; v < tr.Len(); v++ {
			if tr.Depth(NodeID(v)) != tr.Depth(tr.Parent(NodeID(v)))+1 {
				return false
			}
		}
		return tr.Depth(tr.Root()) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeDeterminism(t *testing.T) {
	a := Random(rand.New(rand.NewSource(7)), 25, 1)
	b := Random(rand.New(rand.NewSource(7)), 25, 1)
	for v := 0; v < 25; v++ {
		if a.Parent(NodeID(v)) != b.Parent(NodeID(v)) {
			t.Fatal("Random not deterministic in the seed")
		}
	}
}

func TestStringer(t *testing.T) {
	if got := Path(3).String(); got != "Tree{n=3 h=2 deg=1}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCSRChildrenMatchParentVector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		tr := RandomShape(rng, 1+rng.Intn(200))
		seen := 0
		for v := 0; v < tr.Len(); v++ {
			cs := tr.Children(NodeID(v))
			if len(cs) != tr.Degree(NodeID(v)) {
				t.Fatalf("Degree(%d) = %d, len(Children) = %d", v, tr.Degree(NodeID(v)), len(cs))
			}
			for i, c := range cs {
				if tr.Parent(c) != NodeID(v) {
					t.Fatalf("child %d of %d has parent %d", c, v, tr.Parent(c))
				}
				if i > 0 && cs[i-1] >= c {
					t.Fatalf("children of %d not in increasing order: %v", v, cs)
				}
				seen++
			}
		}
		if seen != tr.Len()-1 {
			t.Fatalf("CSR holds %d children, want %d", seen, tr.Len()-1)
		}
	}
}

func TestPreorderIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 30; iter++ {
		tr := RandomShape(rng, 1+rng.Intn(150))
		pre := tr.Preorder()
		for v := 0; v < tr.Len(); v++ {
			lo, hi := tr.PreorderInterval(NodeID(v))
			if int(hi-lo) != tr.SubtreeSize(NodeID(v)) {
				t.Fatalf("interval of %d has length %d, want subtree size %d", v, hi-lo, tr.SubtreeSize(NodeID(v)))
			}
			if pre[lo] != NodeID(v) {
				t.Fatalf("interval of %d does not start at itself", v)
			}
			view := tr.SubtreeView(NodeID(v))
			sub := tr.Subtree(NodeID(v))
			if len(view) != len(sub) {
				t.Fatalf("SubtreeView and Subtree disagree on %d", v)
			}
			for i := range sub {
				if view[i] != sub[i] {
					t.Fatalf("SubtreeView and Subtree disagree on %d at %d", v, i)
				}
			}
		}
		// Interval containment must coincide with ancestry for all pairs.
		n := tr.Len()
		if n > 60 {
			n = 60
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				ulo, uhi := tr.PreorderInterval(NodeID(u))
				vlo, _ := tr.PreorderInterval(NodeID(v))
				byInterval := ulo <= vlo && vlo < uhi
				if byInterval != tr.IsAncestorOrSelf(NodeID(u), NodeID(v)) {
					t.Fatalf("interval test and IsAncestorOrSelf disagree for (%d,%d)", u, v)
				}
			}
		}
	}
}
