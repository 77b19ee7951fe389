// Package experiments regenerates every evaluation artefact of the
// reproduction (listed below). Each experiment returns one or more
// named tables, which cmd/experiments renders; each table's notes state
// the claim its columns check.
//
// The paper is a theory paper without empirical tables, so each
// experiment measures a theorem, lemma invariant, or construction:
//
//	E1  Theorem 5.15  — measured competitive ratio vs. h(T)·R
//	E2  Theorem C.1   — adversarial lower bound grows with R
//	E3  Theorem 6.1   — per-request decision cost scaling
//	E4  Lemma 5.1/Obs 5.2 — field partition invariants
//	E5  Cor 5.8/Lemma 5.10/5.11 — request shifting and period identity
//	E6  Appendix D    — troublesome-field construction
//	E7  Section 2     — FIB caching application
//	E8  Appendix B    — update-cost model equivalence
//	E9  (extension)   — design-choice ablations on the generalized engine
//	E10 (extension, id "ea") — probing the h(T)-independence conjecture
//	ENGINE (extension, id "engine") — sharded multi-tenant serving engine:
//	       concurrent throughput scaling and cost parity with sequential replay
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Report is one named table of results.
type Report struct {
	ID    string
	Title string
	Table *stats.Table
	// Notes carries free-form observations (e.g. "bound held on all
	// 960 instances").
	Notes []string
}

// Registry maps experiment IDs to their runners.
var Registry = map[string]func() []Report{
	"e1":     E1CompetitiveRatio,
	"e2":     E2LowerBound,
	"e3":     E3DecisionCost,
	"e4":     E4FieldInvariants,
	"e5":     E5Shifting,
	"e6":     E6ConstructionD,
	"e7":     E7FIBCaching,
	"e8":     E8UpdateModels,
	"e9":     E9Ablations,
	"ea":     E10HeightConjecture,
	"engine": EngineFleet,
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string) ([]Report, error) {
	f, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return f(), nil
}
