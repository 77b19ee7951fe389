package server_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// The crash drill runs the daemon in a real child process and SIGKILLs
// it, so the recovery path is exercised across an actual process
// boundary: no destructors, no final fsync, no drain. TestMain re-execs
// the test binary as that child when the env var is set.
const crashChildEnv = "TREECACHED_CRASH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		runCrashChild()
		return
	}
	os.Exit(m.Run())
}

// runCrashChild boots the daemon with the drill's fixed geometry — the
// two-tenant walFleet, so both tenants share the one log — and blocks
// until SIGKILL. Configuration arrives via environment: listen
// address, admin address, state dir.
func runCrashChild() {
	cfg := server.Config{
		Addr:               os.Getenv("CRASH_ADDR"),
		AdminAddr:          os.Getenv("CRASH_ADMIN"),
		StateDir:           os.Getenv("CRASH_STATE"),
		WALDir:             os.Getenv("CRASH_STATE"),
		FsyncInterval:      2 * time.Millisecond,
		CheckpointInterval: 25 * time.Millisecond,
		Trees:              walFleet(),
		Alpha:              4,
		Capacity:           16,
		QueueLen:           16,
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	select {} // die by SIGKILL only
}

// spawnCrashChild re-execs the test binary as a daemon and waits until
// /readyz reports 200 — i.e. checkpoint restored and WAL replayed.
func spawnCrashChild(t *testing.T, addr, admin, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		"CRASH_ADDR="+addr,
		"CRASH_ADMIN="+admin,
		"CRASH_STATE="+dir,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn child: %v", err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	deadline := time.Now().Add(30 * time.Second)
	url := "http://" + admin + "/readyz"
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatalf("child never became ready at %s", url)
	return nil
}

// TestCrashDrillSIGKILL is the acceptance drill: one driver per tenant
// pushes serve and topology frames at a child daemon, concurrently, so
// both tenants' records interleave in the one log, while the parent
// SIGKILLs the child at three traffic-triggered points (randomly
// jittered, so kills land mid batch, inside the group-commit fsync
// window, and across the 25ms background checkpoint cadence). After
// every restart each tenant's recovered sequence frontier must cover
// every frame acknowledged before the kill — zero acknowledged loss —
// and each final ledger must match a sequential replay cost for cost,
// each frame applied exactly once.
func TestCrashDrillSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec drill skipped in -short")
	}
	addr := reserveAddr(t)
	admin := reserveAddr(t)
	dir := t.TempDir()

	const nFrames, batchLen = 240, 16
	frames := walFleetFrames(nFrames, batchLen)
	cmd := spawnCrashChild(t, addr, admin, dir)

	// The drivers retry hard enough to ride out every kill+restart
	// window; acked[i] counts tenant i's frames whose durability ack
	// arrived.
	acked := make([]atomic.Int64, len(frames))
	driverErr := make(chan error, len(frames))
	for tenant := range frames {
		go func(tenant int) {
			cl := client.New(client.Config{
				Addr:        addr,
				Timeout:     500 * time.Millisecond,
				MaxAttempts: 4000,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  25 * time.Millisecond,
				Seed:        int64(71 + tenant),
			})
			defer cl.Close()
			for i, f := range frames[tenant] {
				if err := send(cl, tenant, f); err != nil {
					driverErr <- fmt.Errorf("tenant %d frame %d: %w", tenant, i, err)
					return
				}
				acked[tenant].Add(1)
			}
			driverErr <- nil
		}(tenant)
	}
	total := func() (n int64) {
		for i := range acked {
			n += acked[i].Load()
		}
		return n
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	running := len(frames)
	for round, frac := range []int64{1, 2, 3} {
		threshold := frac * int64(len(frames)) * nFrames / 4
		for total() < threshold {
			select {
			case err := <-driverErr:
				if err != nil {
					t.Fatalf("driver failed before kill %d: %v", round+1, err)
				}
				if running--; running == 0 {
					t.Fatalf("drivers finished before kill %d (acked %d)", round+1, total())
				}
			case <-time.After(time.Millisecond):
			}
		}
		// Jitter so the three kills land at different phases of the
		// batch/fsync/checkpoint cycle.
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
		ackedAtKill := make([]int64, len(frames))
		for i := range acked {
			ackedAtKill[i] = acked[i].Load()
		}
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("kill %d: %v", round, err)
		}
		_ = cmd.Wait()
		cmd = spawnCrashChild(t, addr, admin, dir)

		probe := client.New(client.Config{Addr: addr, Seed: int64(80 + round), MaxAttempts: 200})
		for tenant, want := range ackedAtKill {
			reply, err := probe.Stats(tenant)
			if err != nil {
				t.Fatalf("stats after restart %d: %v", round, err)
			}
			if int64(reply.LastSeq) < want {
				t.Fatalf("restart %d lost tenant %d's acknowledged frames: LastSeq %d < %d acked at kill",
					round, tenant, reply.LastSeq, want)
			}
			t.Logf("kill %d: tenant %d acked %d, recovered LastSeq %d", round+1, tenant, want, reply.LastSeq)
		}
		probe.Close()
	}

	for ; running > 0; running-- {
		if err := <-driverErr; err != nil {
			t.Fatalf("driver: %v", err)
		}
	}
	// One last hard kill with everything acknowledged, then the
	// cost-for-cost verdict against a sequential oracle per tenant.
	_ = cmd.Process.Signal(syscall.SIGKILL)
	_ = cmd.Wait()
	cmd = spawnCrashChild(t, addr, admin, dir)
	defer func() { _ = cmd.Process.Signal(syscall.SIGKILL); _ = cmd.Wait() }()

	cl := client.New(client.Config{Addr: addr, Seed: 99, MaxAttempts: 200})
	defer cl.Close()
	for tenant, tr := range walFleet() {
		checkRecovered(t, cl, tenant, nFrames, frameOracle(tr, frames[tenant]))
	}
}
