package tree

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// randomScan is Random's first form, kept as its reference: for every
// node it recomputes the weight of each earlier node and scans them,
// subtracting each from the draw until it is used up. O(n²) time; the
// weights live in one reused buffer instead of a fresh slice per node.
func randomScan(rng *rand.Rand, n int, depthBias float64) []NodeID {
	parents := make([]NodeID, n)
	parents[0] = None
	depth := make([]int, n)
	w := make([]float64, n)
	for v := 1; v < n; v++ {
		// Pick a parent among 0..v-1, with weight (1+depth)^depthBias.
		var p int
		if depthBias == 0 {
			p = rng.Intn(v)
		} else {
			total := 0.0
			for u := 0; u < v; u++ {
				x := 1.0
				for i := 0; i < int(depthBias); i++ {
					x *= float64(1 + depth[u])
				}
				w[u] = x
				total += x
			}
			r := rng.Float64() * total
			for u := 0; u < v; u++ {
				r -= w[u]
				if r <= 0 {
					p = u
					break
				}
				p = u
			}
		}
		parents[v] = NodeID(p)
		depth[v] = depth[p] + 1
	}
	return parents
}

// parentsOf returns t's parent vector.
func parentsOf(t *Tree) []NodeID {
	out := make([]NodeID, t.Len())
	for v := range out {
		out[v] = t.Parent(NodeID(v))
	}
	return out
}

// digest hashes a parent vector and the rng's next draw: equal digests
// mean the same tree from the same rng state, left in the same state.
func digest(parents []NodeID, rng *rand.Rand) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parents {
		binary.LittleEndian.PutUint32(b[:4], uint32(p))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(rng.Int63()))
	h.Write(b[:])
	return h.Sum64()
}

// TestRandomMatchesScan pins Random to randomScan: the same parent
// vector from the same rng, which it leaves in the same state. The
// cases are the seeds, sizes and biases this module builds trees with,
// and 200 random ones. The two largest take randomScan 10 s and more,
// so their digests were computed with it once and are pinned here.
func TestRandomMatchesScan(t *testing.T) {
	type tc struct {
		seed  int64
		n     int
		depth float64
	}
	cases := []tc{
		{21, 300, 2}, {7, 4096, 3}, {3, 192, 3}, {3, 400, 3}, {9, 4096, 3},
		{4000, 14, 1}, {5000, 13, 1}, {1, 1023, 1}, {2, 1023, 1}, {0, 1, 3},
	}
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cases = append(cases, tc{gen.Int63(), 1 + gen.Intn(1000), []float64{0, 0.5, 1, 2, 3, 4}[gen.Intn(6)]})
	}
	for _, c := range cases {
		got, want := rand.New(rand.NewSource(c.seed)), rand.New(rand.NewSource(c.seed))
		if g, w := parentsOf(Random(got, c.n, c.depth)), randomScan(want, c.n, c.depth); !slices.Equal(g, w) {
			t.Fatalf("Random(seed %d, n %d, bias %v) differs from the scan", c.seed, c.n, c.depth)
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("Random(seed %d, n %d, bias %v) left the rng in another state", c.seed, c.n, c.depth)
		}
	}

	// The benchmark table's TCDeepRandom tree.
	rng := rand.New(rand.NewSource(42))
	if d := digest(parentsOf(Random(rng, 1<<14, 3)), rng); d != 0xefe0c927807cb5b4 {
		t.Errorf("Random(42, 16384, 3) digest %#x, want the scan's 0xefe0c927807cb5b4", d)
	}
	// internal/core's deepShapes: two trees drawn from one rng.
	rng = rand.New(rand.NewSource(32))
	first := rand.New(rand.NewSource(32))
	if !slices.Equal(parentsOf(Random(rng, 4096, 3)), randomScan(first, 4096, 3)) {
		t.Fatal("Random(32, 4096, 3) differs from the scan")
	}
	if d := digest(parentsOf(Random(rng, 1<<16, 2)), rng); d != 0xc1b4813b9453d925 {
		t.Errorf("Random(32: 4096/3, then 65536, 2) digest %#x, want the scan's 0xc1b4813b9453d925", d)
	}
}
