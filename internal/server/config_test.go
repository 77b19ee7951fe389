package server_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/tree"
)

// TestServerNewRejectsInvalidAlgorithmConfig: α and capacity come from
// outside the program (treecached's flags), so an invalid value is an
// error from New, not a panic in Start.
func TestServerNewRejectsInvalidAlgorithmConfig(t *testing.T) {
	for _, tc := range []struct {
		name     string
		alpha    int64
		capacity int
	}{
		{"odd alpha", 3, 16},
		{"zero alpha", 0, 16},
		{"zero capacity", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := server.New(server.Config{
				Addr:  "127.0.0.1:0",
				Trees: []*tree.Tree{walTestTree()}, Alpha: tc.alpha, Capacity: tc.capacity,
			})
			if err == nil {
				t.Fatalf("New accepted alpha %d, capacity %d", tc.alpha, tc.capacity)
			}
		})
	}
}

// TestServerStartRefusesMismatchedCheckpoint: a checkpoint taken with
// another α or capacity is refused at Start. Serving it would give the
// restored tenant the checkpoint's values while a fresh tenant of the
// same daemon got the configured ones.
func TestServerStartRefusesMismatchedCheckpoint(t *testing.T) {
	blob, err := snapshot.Capture(core.NewMutable(walTestTree(),
		core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 16}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		alpha    int64
		capacity int
		ok       bool
	}{
		{"matching", 4, 16, true},
		{"alpha", 8, 16, false},
		{"capacity", 4, 32, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := server.WriteCheckpoint(dir, [][]byte{blob}, []uint64{0}); err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(server.Config{
				Addr: "127.0.0.1:0", StateDir: dir,
				Trees: []*tree.Tree{walTestTree()}, Alpha: tc.alpha, Capacity: tc.capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = srv.Start()
			if err == nil {
				defer srv.Kill()
			}
			if (err == nil) != tc.ok {
				t.Fatalf("Start over an alpha 4, capacity 16 checkpoint with alpha %d, capacity %d: %v",
					tc.alpha, tc.capacity, err)
			}
		})
	}
}
