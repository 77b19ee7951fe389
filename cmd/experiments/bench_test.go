package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareBenchJSON pins the -bench-compare gate: a row slower by
// more than the tolerance is flagged and fails the compare, a row
// within it passes, rows on one side only are listed but never
// flagged, and a tolerance in (0,1] is a fraction.
func TestCompareBenchJSON(t *testing.T) {
	write := func(name string, rows map[string]float64) string {
		t.Helper()
		var f benchFile
		for _, n := range []string{"A/n=1", "B/n=1", "Gone/n=1", "New/n=1"} {
			if ns, ok := rows[n]; ok {
				f.Current = append(f.Current, benchResult{Name: n, NsPerOp: ns})
			}
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", map[string]float64{"A/n=1": 100, "B/n=1": 100, "Gone/n=1": 100})
	for _, tc := range []struct {
		name      string
		a         float64 // new ns/op of row A (old 100)
		tolerance float64
		wantErr   bool
	}{
		{"beyond tolerance", 140, 30, true},
		{"within tolerance", 125, 30, false},
		{"faster", 60, 30, false},
		{"fraction read as percent", 125, 0.3, false},
		{"fraction beyond", 140, 0.3, true},
		{"gate disabled", 500, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPath := write("new.json", map[string]float64{"A/n=1": tc.a, "B/n=1": 100, "New/n=1": 100})
			var out bytes.Buffer
			err := compareBenchJSON(&out, oldPath, newPath, tc.tolerance)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v\n%s", err, tc.wantErr, out.String())
			}
			if err != nil && !strings.Contains(err.Error(), "A/n=1") {
				t.Errorf("error %q does not name the regressed row", err)
			}
			lines := map[string]string{}
			for _, l := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(l); len(f) > 0 {
					lines[f[0]] = l
				}
			}
			if got := strings.Contains(lines["A/n=1"], "REGRESSION"); got != tc.wantErr {
				t.Errorf("row A flagged = %v, want %v: %q", got, tc.wantErr, lines["A/n=1"])
			}
			for row, mark := range map[string]string{"B/n=1": "", "Gone/n=1": "gone", "New/n=1": "new"} {
				l, ok := lines[row]
				if !ok {
					t.Errorf("row %s not listed", row)
					continue
				}
				if !strings.Contains(l, mark) || strings.Contains(l, "REGRESSION") {
					t.Errorf("row %s = %q, want %q and no flag", row, l, mark)
				}
			}
		})
	}
}
