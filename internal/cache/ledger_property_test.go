package cache_test

// Property tests for the cost Ledger, run against every algorithm in
// the repository through one table-driven harness (external test
// package, so the algorithm packages can be imported without cycles).
//
// The properties, for any request sequence:
//
//  1. Accounting identity: Total = Serve + α·(Fetched + Evicted), with
//     Move = α·(Fetched + Evicted) exactly.
//  2. Non-negativity: every component is ≥ 0 at every round.
//  3. Monotonicity: serving more requests never decreases any
//     component — in particular cost(tr1 ++ tr2) ≥ cost(tr1)
//     componentwise for concatenated traces.
//  4. Per-round settlement: the (serveCost, moveCost) returned by
//     Serve equals the ledger delta of that round.

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/variants"
)

const ledgerAlpha = int64(4)

// ledgerAlgorithms is the shared algorithm table: every Algorithm
// implementation in the repo, built over the given (small) tree.
func ledgerAlgorithms(t *tree.Tree) []struct {
	name string
	algo sim.Algorithm
} {
	capa := 1 + t.Len()/2
	return []struct {
		name string
		algo sim.Algorithm
	}{
		{"TC", core.New(t, core.Config{Alpha: ledgerAlpha, Capacity: capa})},
		{"TC-reference", core.NewReference(t, core.Config{Alpha: ledgerAlpha, Capacity: capa})},
		{"Eager-LRU", baseline.NewEager(t, baseline.Config{Alpha: ledgerAlpha, Capacity: capa, Policy: baseline.LRU})},
		{"Eager-FIFO", baseline.NewEager(t, baseline.Config{Alpha: ledgerAlpha, Capacity: capa, Policy: baseline.FIFO})},
		{"Eager-Rand", baseline.NewEager(t, baseline.Config{Alpha: ledgerAlpha, Capacity: capa, Policy: baseline.Rand})},
		{"Eager-LRU-evictOnUpdate", baseline.NewEager(t, baseline.Config{Alpha: ledgerAlpha, Capacity: capa, Policy: baseline.LRU, EvictOnUpdate: true})},
		{"NoCache", baseline.NewNoCache(ledgerAlpha)},
		{"Variant-TC", variants.New(t, variants.Config{Alpha: ledgerAlpha, Capacity: capa})},
		{"Variant-bottomup-coldest", variants.New(t, variants.Config{
			Alpha: ledgerAlpha, Capacity: capa, Scan: variants.BottomUp, Overflow: variants.EvictColdest,
		})},
		{"Variant-jitter", variants.New(t, variants.Config{
			Alpha: ledgerAlpha, Capacity: capa, Jitter: 0.5, Seed: 9,
		})},
	}
}

// checkLedgerInvariants asserts properties 1 and 2 on a snapshot.
func checkLedgerInvariants(t *testing.T, name string, l cache.Ledger) {
	t.Helper()
	if l.Serve < 0 || l.Move < 0 || l.Fetched < 0 || l.Evicted < 0 {
		t.Fatalf("%s: negative ledger component: %+v", name, l)
	}
	if want := l.Alpha * (l.Fetched + l.Evicted); l.Move != want {
		t.Fatalf("%s: Move = %d, want α·(Fetched+Evicted) = %d (%+v)", name, l.Move, want, l)
	}
	if l.Total() != l.Serve+l.Move {
		t.Fatalf("%s: Total = %d, want Serve+Move = %d", name, l.Total(), l.Serve+l.Move)
	}
}

// geqLedger reports whether a ≥ b componentwise.
func geqLedger(a, b cache.Ledger) bool {
	return a.Serve >= b.Serve && a.Move >= b.Move && a.Fetched >= b.Fetched && a.Evicted >= b.Evicted
}

func TestLedgerPropertiesAllAlgorithms(t *testing.T) {
	shapes := []struct {
		name string
		t    *tree.Tree
	}{
		{"path-9", tree.Path(9)},
		{"star-12", tree.Star(12)},
		{"binary-15", tree.CompleteKary(15, 2)},
		{"caterpillar-4x2", tree.Caterpillar(4, 2)},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(500))
		tr1 := trace.RandomMixed(rng, sh.t, 400)
		tr2 := trace.Churn(rng, sh.t, trace.ChurnConfig{
			Rounds: 300, ZipfS: 1.0, UpdateFrac: 0.3, BurstLen: int(ledgerAlpha),
		})
		for _, entry := range ledgerAlgorithms(sh.t) {
			name := sh.name + "/" + entry.name
			a := entry.algo
			if a.Ledger().Alpha != ledgerAlpha {
				t.Fatalf("%s: ledger alpha %d, want %d", name, a.Ledger().Alpha, ledgerAlpha)
			}
			prev := a.Ledger()
			for i, req := range tr1 {
				serveCost, moveCost := a.Serve(req)
				led := a.Ledger()
				checkLedgerInvariants(t, name, led)
				if !geqLedger(led, prev) {
					t.Fatalf("%s: round %d: ledger went backwards: %+v -> %+v", name, i, prev, led)
				}
				if led.Serve-prev.Serve != serveCost || led.Move-prev.Move != moveCost {
					t.Fatalf("%s: round %d: Serve returned (%d,%d) but ledger moved (%d,%d)",
						name, i, serveCost, moveCost, led.Serve-prev.Serve, led.Move-prev.Move)
				}
				if serveCost != 0 && serveCost != 1 {
					t.Fatalf("%s: round %d: serve cost %d", name, i, serveCost)
				}
				prev = led
			}
			// Concatenation: continuing with tr2 only grows the ledger.
			afterTr1 := a.Ledger()
			for _, req := range tr2 {
				a.Serve(req)
			}
			final := a.Ledger()
			checkLedgerInvariants(t, name, final)
			if !geqLedger(final, afterTr1) {
				t.Fatalf("%s: concatenated trace shrank the ledger: %+v -> %+v", name, afterTr1, final)
			}
			// Reset zeroes everything but keeps α.
			a.Reset()
			l := a.Ledger()
			if l.Total() != 0 || l.Fetched != 0 || l.Evicted != 0 || l.Alpha != ledgerAlpha {
				t.Fatalf("%s: after reset: %+v", name, l)
			}
		}
	}
}

// TestLedgerPropertiesOnEngine: the same accounting identity must hold
// for every shard's published stats on the sharded engine and for the
// fleet aggregate (sum of per-shard ledgers).
func TestLedgerPropertiesOnEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	trees := []*tree.Tree{tree.CompleteKary(31, 2), tree.Star(16), tree.Path(9)}
	e := engine.New(engine.Config{
		Shards: len(trees),
		NewShard: func(i int) engine.Algorithm {
			return core.New(trees[i], core.Config{Alpha: ledgerAlpha, Capacity: 1 + trees[i].Len()/2})
		},
	})
	defer e.Close()
	for i, tr := range trees {
		if err := e.Submit(i, trace.RandomMixed(rng, tr, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	st := e.Stats()
	check := func(name string, rounds, serve, move, fetched, evicted int64) {
		t.Helper()
		if move != ledgerAlpha*(fetched+evicted) {
			t.Fatalf("%s: Move = %d, want α·(Fetched+Evicted) = %d", name, move, ledgerAlpha*(fetched+evicted))
		}
		if serve < 0 || move < 0 || serve > rounds {
			t.Fatalf("%s: inconsistent stats: rounds %d serve %d move %d", name, rounds, serve, move)
		}
	}
	for i, ss := range st.Shards {
		if ss.Rounds != 1000 {
			t.Fatalf("%s: %d rounds, want 1000", trees[i], ss.Rounds)
		}
		check(trees[i].String(), ss.Rounds, ss.Serve, ss.Move, ss.Fetched, ss.Evicted)
	}
	check("fleet", st.Rounds, st.Serve, st.Move, st.Fetched, st.Evicted)
}
