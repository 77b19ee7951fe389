package experiments

import (
	"regexp"
	"strings"
	"testing"
)

// TestBenchesNames pins the table's naming contract. The repo-root
// benchmarks select rows by "<Group>/" prefix and the recorder's
// compare keys rows by name, so a duplicate would silently merge two
// rows and a malformed name would drop out of its group. The
// recorder's /cpus=N suffix applies per row, so a group must not mix
// Goroutines and non-Goroutines rows.
func TestBenchesNames(t *testing.T) {
	shape := regexp.MustCompile(`^[A-Z][A-Za-z]*(/[a-z]+=[0-9]+)+$`)
	seen := map[string]bool{}
	goroutines := map[string]bool{}
	for _, r := range Benches() {
		if !shape.MatchString(r.Name) {
			t.Errorf("%q is not shaped <Group>/<param>", r.Name)
		}
		if seen[r.Name] {
			t.Errorf("duplicate row %q", r.Name)
		}
		seen[r.Name] = true
		if r.Run == nil {
			t.Errorf("%q has no Run", r.Name)
		}
		group, _, _ := strings.Cut(r.Name, "/")
		if g, ok := goroutines[group]; ok && g != r.Goroutines {
			t.Errorf("group %s mixes Goroutines rows with plain ones (%q)", group, r.Name)
		}
		goroutines[group] = r.Goroutines
	}
	if len(seen) == 0 {
		t.Fatal("empty benchmark table")
	}
}
