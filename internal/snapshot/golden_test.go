package snapshot_test

import (
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/tree"
)

// goldenV1 is a version-1 blob written by the version-1 encoder from
// the state midChurnScenario reaches at goldenCut: overlay leaves (two
// of three cached), tombstones and withdrawn ids rebuilt out of the
// snapshot are all present. It cannot be regenerated: the codec now
// writes version 2 only.
const (
	goldenV1  = "testdata/v1_midchurn.tcckpt"
	goldenCut = 508
)

// midChurnScenario returns the configuration, tree and churn stream of
// the golden capture: a binary tree under steady announce/withdraw
// churn (an insert every 7th step, a withdrawal every 7th step offset
// by two) with mixed requests in between.
func midChurnScenario() (*tree.Tree, core.MutableConfig, []step) {
	tr := tree.CompleteKary(63, 2)
	cfg := core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 24}}
	rng := rand.New(rand.NewSource(2024))
	data := make([]byte, 600)
	for i := range data {
		switch i % 7 {
		case 3:
			data[i] = 250 + byte(i%6)
		case 5:
			data[i] = 240 + byte(i%10)
		default:
			data[i] = byte(rng.Intn(240))
		}
	}
	return tr, cfg, genSteps(data, tr, 5)
}

// TestRestoreV1Golden pins backward compatibility: a blob written by
// the version-1 encoder restores to exactly the state replaying its
// scenario reaches, and both instances serve the rest of the stream
// identically.
func TestRestoreV1Golden(t *testing.T) {
	blob, err := os.ReadFile(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(blob[6:8]); v != 1 {
		t.Fatalf("golden blob has format version %d, want 1", v)
	}
	tr, cfg, steps := midChurnScenario()
	replayed := core.NewMutable(tr, cfg)
	for _, st := range steps[:goldenCut] {
		apply(t, "replayed", replayed, st)
	}
	overlay, tombstones, withdrawn, cachedOverlay := idSpaceShape(replayed)
	if overlay == 0 || tombstones == 0 || withdrawn == 0 || cachedOverlay == 0 {
		t.Fatalf("golden state lacks coverage: %d overlay leaves (%d cached), %d tombstones, %d withdrawn ids",
			overlay, cachedOverlay, tombstones, withdrawn)
	}

	restored, err := snapshot.Restore(blob)
	if err != nil {
		t.Fatalf("restore v1: %v", err)
	}
	inPlace := core.NewMutable(tr, cfg)
	if err := snapshot.RestoreInto(inPlace, blob); err != nil {
		t.Fatalf("restore-into v1: %v", err)
	}
	assertEqualState(t, "v1 restore", replayed, restored)
	assertEqualState(t, "v1 restore (in place)", replayed, inPlace)
	for i, st := range steps[goldenCut:] {
		s0, m0 := apply(t, "replayed", replayed, st)
		s1, m1 := apply(t, "restored", restored, st)
		if s0 != s1 || m0 != m1 {
			t.Fatalf("suffix op %d: costs diverged: replayed (%d,%d) restored (%d,%d)", i, s0, m0, s1, m1)
		}
	}
	assertEqualState(t, "after suffix", replayed, restored)

	// A restored v1 state captures as v2 and round-trips.
	again, err := snapshot.Restore(mustCapture(t, inPlace))
	if err != nil {
		t.Fatalf("restore of the v2 re-capture: %v", err)
	}
	assertEqualState(t, "v1 → v2 re-capture", inPlace, again)
}

// idSpaceShape counts the kinds of id a MutableTC's state holds: live
// overlay leaves (and how many are cached), tombstoned snapshot nodes,
// and withdrawn ids outside the snapshot.
func idSpaceShape(m *core.MutableTC) (overlay, tombstones, withdrawn, cachedOverlay int) {
	d := m.Dyn()
	for s := 0; s < d.NumIDs(); s++ {
		v := tree.NodeID(s)
		inSnap := d.Dense(v) != tree.None
		switch {
		case d.Live(v) && !inSnap:
			overlay++
			if m.Cached(v) {
				cachedOverlay++
			}
		case !d.Live(v) && inSnap:
			tombstones++
		case !d.Live(v):
			withdrawn++
		}
	}
	return overlay, tombstones, withdrawn, cachedOverlay
}

func mustCapture(t *testing.T, m *core.MutableTC) []byte {
	t.Helper()
	blob, err := snapshot.Capture(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
