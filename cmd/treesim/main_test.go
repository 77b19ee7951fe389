package main

import (
	"context"
	"math/rand"
	"net"
	"testing"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/tree"
)

// TestRemoteAcrossRestart runs treesim -remote's two halves against an
// in-process daemon: -remote-to serves the first half and checks the
// daemon's ledger against the local sequential run, the daemon stops
// and restarts on the same state directory, and -remote-from serves the
// rest and checks the cumulative ledger. With a graceful Shutdown the
// first half ends with a wire SNAPSHOT; with the WAL and a Kill it does
// not (-remote-hardkill), recovery replays the log, and the second half
// also checks that the recovered LastSeq counts the first half's
// batches.
func TestRemoteAcrossRestart(t *testing.T) {
	const alpha, capacity, rounds, batch = 8, 128, 20000, 64
	rng := rand.New(rand.NewSource(1))
	tr, err := tree.FromShape(rng, "binary", 1023)
	if err != nil {
		t.Fatal(err)
	}
	input := trace.ZipfNodes(rng, tr, rounds, 1.1)
	for _, hardkill := range []bool{false, true} {
		name := "shutdown"
		if hardkill {
			name = "kill"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := server.Config{
				Addr: reserveAddr(t), StateDir: dir,
				Trees: []*tree.Tree{tr}, Alpha: alpha, Capacity: capacity,
			}
			if hardkill {
				cfg.WALDir = dir
			}
			start := func() *server.Server {
				t.Helper()
				srv, err := server.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Start(); err != nil {
					t.Fatal(err)
				}
				return srv
			}

			srv := start()
			if err := runRemote(tr, input, alpha, capacity, cfg.Addr, 0, rounds/2, batch, 0, hardkill); err != nil {
				t.Fatal(err)
			}
			if hardkill {
				srv.Kill()
			} else if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			srv = start()
			defer srv.Kill()
			if err := runRemote(tr, input, alpha, capacity, cfg.Addr, rounds/2, 0, batch, 0, hardkill); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
