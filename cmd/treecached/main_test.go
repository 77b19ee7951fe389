package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

// childArgsEnv, when set, makes the test binary run as treecached: its
// value is the daemon's command line, one argument per line. The drills
// below re-exec the binary this way, so they exercise the real main —
// flag parsing, signal handling and exit status included — across real
// process boundaries.
const childArgsEnv = "TREECACHED_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgsEnv); ok {
		os.Args = append([]string{"treecached"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestConfigNoFlagsLeavesTunablesZero: config sets only deployment,
// problem and operations fields, so with no flags every tuning value is
// the zero server.Config's, and server.New fills in the production
// defaults.
func TestConfigNoFlagsLeavesTunablesZero(t *testing.T) {
	cfg, err := config(flag.NewFlagSet("treecached", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Trees) != 4 || cfg.Trees[0].Len() != 1023 || cfg.Alpha != 8 || cfg.Capacity != 128 {
		t.Fatalf("default problem: %d trees, α %d, capacity %d", len(cfg.Trees), cfg.Alpha, cfg.Capacity)
	}
	cfg.Addr, cfg.AdminAddr, cfg.StateDir, cfg.WALDir = "", "", "", ""
	cfg.Trees, cfg.Alpha, cfg.Capacity = nil, 0, 0
	cfg.CheckpointInterval, cfg.Quota = 0, server.QuotaConfig{}
	if !reflect.DeepEqual(cfg, server.Config{}) {
		t.Fatalf("no flags set a tuning field: %+v", cfg)
	}
}

// TestConfigRejects: outside input is an error, not a panic.
func TestConfigRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-wal"},
		{"-tenants", "-1"},
		{"-nodes", "0"},
		{"-tree", "hexagon"},
		{"-queue", "64"},
	} {
		fs := flag.NewFlagSet("treecached", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		if _, err := config(fs, args); err == nil {
			t.Errorf("config(%q) accepted", args)
		}
	}
}

// drillWorkload is the drills' tenant-0 traffic over treecached's
// default tree, in 64-request frames, with the sequential ledger of
// each prefix: oracle(k) is the local MutableTC after the first k
// frames.
func drillWorkload(t *testing.T, frames int) ([]trace.Trace, func(k int) *core.MutableTC) {
	t.Helper()
	cfg, err := config(flag.NewFlagSet("treecached", flag.ContinueOnError), []string{"-tenants", "1"})
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Trees[0]
	input := trace.ZipfNodes(rand.New(rand.NewSource(1)), tr, frames*64, 1.1)
	batches := make([]trace.Trace, frames)
	for i := range batches {
		batches[i] = input[i*64 : (i+1)*64]
	}
	return batches, func(k int) *core.MutableTC {
		m := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: cfg.Alpha, Capacity: cfg.Capacity}})
		for _, b := range batches[:k] {
			m.ServeBatch(b)
		}
		return m
	}
}

// daemon is one treecached child process.
type daemon struct {
	cmd         *exec.Cmd
	addr, admin string
}

// spawn starts treecached with args plus fresh listen addresses and
// waits until /readyz answers 200: recovery is complete and the wire
// listener accepts.
func spawn(t *testing.T, addr string, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: addr, admin: reserveAddr(t)}
	args = append([]string{"-addr", d.addr, "-admin", d.admin, "-tenants", "1"}, args...)
	d.cmd = exec.Command(os.Args[0])
	d.cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start treecached: %v", err)
	}
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })
	url := "http://" + d.admin + "/readyz"
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
	}
	t.Fatalf("treecached never became ready at %s", url)
	return nil
}

// signal sends sig and returns the exit error (nil: status 0).
func (d *daemon) signal(t *testing.T, sig syscall.Signal) error {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signal %v: %v", sig, err)
	}
	return d.cmd.Wait()
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

// checkLedger requires tenant 0's daemon stats to equal the sequential
// run's, with lastSeq frames acknowledged.
func checkLedger(t *testing.T, cl *client.Client, lastSeq uint64, want *core.MutableTC) {
	t.Helper()
	got, err := cl.Stats(0)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	led := want.Ledger()
	if got.LastSeq != lastSeq || got.Rounds != want.Round() || got.Serve != led.Serve || got.Move != led.Move ||
		got.Fetched != led.Fetched || got.Evicted != led.Evicted {
		t.Fatalf("daemon reports %+v; want LastSeq %d and the sequential ledger %+v over %d rounds",
			got, lastSeq, led, want.Round())
	}
}

// TestDrillSIGTERM: treecached with a state directory and no tuning
// flags serves half a workload, drains on SIGTERM — exit status 0 and a
// checkpoint file — and, restarted on the same directory, serves the
// rest; the daemon's ledger equals an uninterrupted sequential run
// after each half.
func TestDrillSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec drill skipped in -short")
	}
	const frames = 160
	batches, oracle := drillWorkload(t, frames)
	dir := t.TempDir()
	addr := reserveAddr(t)

	d := spawn(t, addr, "-state-dir", dir)
	cl := client.New(client.Config{Addr: addr, Seed: 1})
	for i, b := range batches[:frames/2] {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	checkLedger(t, cl, frames/2, oracle(frames/2))
	cl.Close()
	if err := d.signal(t, syscall.SIGTERM); err != nil {
		t.Fatalf("treecached after SIGTERM: %v, want exit status 0", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.tcckpt")); err != nil {
		t.Fatalf("drain left no checkpoint: %v", err)
	}

	d = spawn(t, addr, "-state-dir", dir)
	cl = client.New(client.Config{Addr: addr, Seed: 2})
	defer cl.Close()
	if err := cl.Resume(0); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[frames/2:] {
		if err := cl.Serve(0, b); err != nil {
			t.Fatalf("frame %d: %v", frames/2+i, err)
		}
	}
	checkLedger(t, cl, frames, oracle(frames))
	if err := d.signal(t, syscall.SIGTERM); err != nil {
		t.Fatalf("treecached after the second SIGTERM: %v, want exit status 0", err)
	}
}

// TestDrillWALSIGKILL: treecached -wal is SIGKILLed three times while a
// client streams frames at it and restarted on the same directory each
// time; the client rides through on retries. After every restart the
// recovered sequence frontier covers every frame acknowledged before
// the kill. After a last SIGKILL with everything acknowledged, a cold
// start recovers exactly the acknowledged frames, and the ledger equals
// an uninterrupted sequential run: nothing lost, nothing applied twice.
func TestDrillWALSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec drill skipped in -short")
	}
	const frames = 240
	batches, oracle := drillWorkload(t, frames)
	dir := t.TempDir()
	addr := reserveAddr(t)
	args := []string{"-wal", "-state-dir", dir, "-checkpoint-interval", "50ms"}
	d := spawn(t, addr, args...)

	var acked atomic.Int64
	done := make(chan error, 1)
	go func() {
		cl := client.New(client.Config{
			Addr: addr, Timeout: 500 * time.Millisecond, MaxAttempts: 4000,
			BaseBackoff: time.Millisecond, MaxBackoff: 25 * time.Millisecond, Seed: 3,
		})
		defer cl.Close()
		for i, b := range batches {
			if err := cl.Serve(0, b); err != nil {
				done <- fmt.Errorf("frame %d: %w", i, err)
				return
			}
			acked.Add(1)
		}
		done <- nil
	}()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	finished := false
	for kill := 1; kill <= 3 && !finished; kill++ {
		for acked.Load() < int64(kill*frames/4) && !finished {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				finished = true
			case <-time.After(time.Millisecond):
			}
		}
		// Jitter so the kills land at different points of the frame,
		// fsync and checkpoint cycles.
		time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
		atKill := acked.Load()
		var exit *exec.ExitError
		if err := d.signal(t, syscall.SIGKILL); !errors.As(err, &exit) {
			t.Fatalf("treecached after SIGKILL: %v", err)
		}
		d = spawn(t, addr, args...)
		probe := client.New(client.Config{Addr: addr, Seed: int64(10 + kill)})
		st, err := probe.Stats(0)
		probe.Close()
		if err != nil {
			t.Fatal(err)
		}
		if int64(st.LastSeq) < atKill {
			t.Fatalf("kill %d lost acknowledged frames: recovered LastSeq %d < %d acked", kill, st.LastSeq, atKill)
		}
		t.Logf("kill %d: %d frames acked, LastSeq %d recovered", kill, atKill, st.LastSeq)
	}
	if !finished {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	_ = d.signal(t, syscall.SIGKILL)
	d = spawn(t, addr, args...)
	cl := client.New(client.Config{Addr: addr, Seed: 20})
	defer cl.Close()
	checkLedger(t, cl, uint64(acked.Load()), oracle(frames))
	_ = d.signal(t, syscall.SIGKILL)
}
