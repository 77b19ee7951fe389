package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, path string, opts Options) (*Log, [][]byte) {
	t.Helper()
	l, recs, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, recs
}

// TestRoundTrip commits records, reopens the log, and expects the
// exact payloads back in order.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, recs := open(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma with a longer payload")}
	for _, p := range want {
		if err := l.Commit(p); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	st := l.Stats()
	if st.Records != int64(len(want)) {
		t.Fatalf("Records = %d, want %d", st.Records, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, got := open(t, path, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if s := l2.Stats(); s.Recovered != int64(len(want)) || s.TruncatedBytes != 0 {
		t.Fatalf("Stats after clean reopen = %+v", s)
	}
}

// TestGroupCommit drives concurrent committers through one log with a
// group-commit window and checks that fsyncs were batched: far fewer
// syncs than records, and every Commit returned only after its record
// was covered.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{SyncInterval: 2 * time.Millisecond})
	defer l.Close()
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Commit([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers*per {
		t.Fatalf("Records = %d, want %d", st.Records, writers*per)
	}
	if st.Syncs >= st.Records {
		t.Fatalf("group commit did not batch: %d syncs for %d records", st.Syncs, st.Records)
	}
	if st.SyncLatency.Count() != st.Syncs {
		t.Fatalf("latency histogram has %d samples, want %d", st.SyncLatency.Count(), st.Syncs)
	}
}

// TestTornTail appends a partial record (simulating a crash mid
// write(2)) and expects reopen to truncate it away and recover the
// valid prefix — never an error.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Commit([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendRecord(nil, []byte("torn-record-payload"))
	for cut := 1; cut < len(torn); cut++ {
		img := append(append([]byte(nil), full...), torn[:cut]...)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := open(t, path, Options{})
		if len(recs) != 3 {
			t.Fatalf("cut=%d: recovered %d records, want 3", cut, len(recs))
		}
		if st := l2.Stats(); st.TruncatedBytes != int64(cut) {
			t.Fatalf("cut=%d: TruncatedBytes = %d", cut, st.TruncatedBytes)
		}
		if st, _ := os.Stat(path); st.Size() != int64(len(full)) {
			t.Fatalf("cut=%d: file not truncated back to %d bytes (got %d)", cut, len(full), st.Size())
		}
		// The recovered log must accept appends at the truncation point.
		if err := l2.Commit([]byte("after")); err != nil {
			t.Fatalf("cut=%d: Commit after recovery: %v", cut, err)
		}
		l2.Close()
		l3, recs3 := open(t, path, Options{})
		if len(recs3) != 4 || string(recs3[3]) != "after" {
			t.Fatalf("cut=%d: second recovery got %d records", cut, len(recs3))
		}
		l3.Close()
	}
}

// TestRead returns the valid prefix of a log image with a torn tail
// and leaves the file exactly as it found it.
func TestRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	img := AppendRecord(AppendRecord(nil, []byte("one")), []byte("two"))
	img = append(img, AppendRecord(nil, []byte("torn"))[:5]...)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "one" || string(recs[1]) != "two" {
		t.Fatalf("Read = %q, want [one two]", recs)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, img) {
		t.Fatal("Read modified the log")
	}
	if _, err := Read(filepath.Join(t.TempDir(), "missing.wal"), 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Read of a missing log: %v, want ErrNotExist", err)
	}
}

// TestCorruptTail flips one payload byte of the final record: its CRC
// fails, the record is dropped, and the prefix survives.
func TestCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Commit([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := open(t, path, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (corrupt final dropped)", len(recs))
	}
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes = 0 for a corrupt tail")
	}
}

// TestHugeLengthTail writes an absurd length header; recovery must
// treat it as corruption, not attempt a giant allocation.
func TestHugeLengthTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{})
	if err := l.Commit([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 9, 9})
	f.Close()
	l2, recs := open(t, path, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "ok" {
		t.Fatalf("recovered %v", recs)
	}
}

// TestReset truncates the log; a reopen recovers nothing, and records
// appended after the reset are recovered alone.
func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Commit([]byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size after Reset = %d", l.Size())
	}
	if err := l.Commit([]byte("post")); err != nil {
		t.Fatalf("Commit after Reset: %v", err)
	}
	l.Close()
	l2, recs := open(t, path, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "post" {
		t.Fatalf("recovered %q, want [post]", recs)
	}
}

// TestKill crashes the log with an unsynced append pending: the
// pending Waiter must fail with ErrClosed (no durability promise was
// ever made for it), while a record covered by an explicit Sync
// beforehand is recovered on reopen. The unsynced record may or may
// not survive — same-process page cache usually keeps it — and either
// outcome is legal; what is illegal is a successful Wait for it.
func TestKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	// An hour-long window so nothing syncs unless we force it.
	l, _ := open(t, path, Options{SyncInterval: time.Hour})
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	lsn, err := l.Append([]byte("unsynced"))
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- l.Wait(lsn) }()
	// Give the waiter a moment to actually block on the cond.
	time.Sleep(10 * time.Millisecond)
	l.Kill()
	if err := <-waitErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait across Kill = %v, want ErrClosed", err)
	}
	if _, err := l.Append(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Kill: %v", err)
	}
	l2, recs := open(t, path, Options{})
	defer l2.Close()
	if len(recs) < 1 || string(recs[0]) != "durable" {
		t.Fatalf("synced record lost across Kill: recovered %q", recs)
	}
}

// TestMaxRecord rejects oversized appends.
func TestMaxRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{MaxRecord: 8})
	defer l.Close()
	if _, err := l.Append(make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append oversized: %v", err)
	}
	if err := l.Commit(make([]byte, 8)); err != nil {
		t.Fatalf("Commit at limit: %v", err)
	}
}

// TestClosedOps verifies post-Close behavior.
func TestClosedOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := open(t, path, Options{})
	if err := l.Commit([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := l.Reset(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset after Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// FuzzWALRoundTrip fuzzes the recovery scanner with arbitrary file
// images: it must never panic, must recover only CRC-valid records,
// and truncation must leave a file that round-trips cleanly (reopen
// recovers exactly the same records with zero further truncation).
func FuzzWALRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, []byte("seed")))
	f.Add(AppendRecord(AppendRecord(nil, []byte("a")), []byte("bb"))[:11])
	img := AppendRecord(nil, []byte("flip"))
	img[5] ^= 1
	f.Add(img)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, Options{MaxRecord: 1 << 16})
		if err != nil {
			t.Fatalf("Open on arbitrary image: %v", err)
		}
		st := l.Stats()
		if st.Recovered != int64(len(recs)) {
			t.Fatalf("Recovered=%d but %d records", st.Recovered, len(recs))
		}
		if got, want := st.TruncatedBytes+fileSize(t, path), int64(len(data)); got != want {
			t.Fatalf("truncated %d + size %d != original %d", st.TruncatedBytes, fileSize(t, path), want)
		}
		// Appending after recovery must work and survive a reopen.
		if err := l.Commit([]byte("tail")); err != nil {
			t.Fatalf("Commit after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, recs2, err := Open(path, Options{MaxRecord: 1 << 16})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen recovered %d records, want %d", len(recs2), len(recs)+1)
		}
		for i := range recs {
			if !bytes.Equal(recs2[i], recs[i]) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if string(recs2[len(recs)]) != "tail" {
			t.Fatalf("appended record lost")
		}
		if s2 := l2.Stats(); s2.TruncatedBytes != 0 {
			t.Fatalf("second recovery truncated %d bytes of an already-clean log", s2.TruncatedBytes)
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
