package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// oracle encodes m's state the slow way: every entry re-derived from
// the live instance through its per-node accessors (Counter, Cached,
// the Dyn topology), none of it from an export or an encoder cache,
// and written out whole in format v2.
func oracle(m *core.MutableTC) []byte {
	d, snap := m.Dyn(), m.Snapshot()
	var nodes []core.NodeState
	for g := 0; g < snap.Len(); g++ {
		s := d.Stable(tree.NodeID(g))
		nodes = append(nodes, core.NodeState{ID: s, Parent: d.Parent(s), Live: d.Live(s), InSnap: true})
	}
	for s := 0; s < d.NumIDs(); s++ {
		if v := tree.NodeID(s); d.Live(v) && d.Dense(v) == tree.None {
			nodes = append(nodes, core.NodeState{ID: v, Parent: d.Parent(v), Live: true})
		}
	}
	led := m.Ledger()
	out := append([]byte(nil), "TCSNAP"...)
	out = binary.LittleEndian.AppendUint16(out, snapshot.Version)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.AppendUvarint(out, uint64(m.Alpha()))
	out = binary.AppendUvarint(out, uint64(m.Capacity()))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.RebuildFrac()))
	for _, v := range []int64{m.Epoch(), int64(m.Pending()), m.Round(), m.PhaseRounds(), m.Phase(),
		int64(m.MaxCacheLen()), led.Serve, led.Move, led.Fetched, led.Evicted, int64(d.NumIDs())} {
		out = binary.AppendUvarint(out, uint64(v))
	}
	prev := int64(-1)
	for _, ns := range nodes {
		flags := byte(2) // inSnap, cleared below for overlay leaves
		if !ns.InSnap {
			flags = 0
		}
		if ns.Live {
			flags |= 1
			ns.Cnt, ns.Cached = m.Counter(ns.ID), m.Cached(ns.ID)
		}
		if ns.Cached {
			flags |= 4
		}
		gap := int64(ns.ID) - prev - 1
		if gap != 0 {
			flags |= 8
		}
		out = append(out, flags)
		if gap != 0 {
			out = binary.AppendUvarint(out, uint64(gap))
		}
		out = binary.AppendUvarint(out, uint64(int64(ns.Parent)+1))
		if ns.Live {
			out = binary.AppendUvarint(out, uint64(ns.Cnt))
		}
		prev = int64(ns.ID)
	}
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[12:]))
	return out
}

// checkCapture captures m and requires the blob to equal the oracle's.
func checkCapture(t *testing.T, label string, m *core.MutableTC) []byte {
	t.Helper()
	blob, err := snapshot.Capture(m)
	if err != nil {
		t.Fatalf("%s: capture: %v", label, err)
	}
	if want := oracle(m); !bytes.Equal(blob, want) {
		at := 12 // past the checksum
		for at < len(blob) && at < len(want) && blob[at] == want[at] {
			at++
		}
		t.Fatalf("%s: capture (%d bytes) differs from the oracle (%d bytes) at byte %d", label, len(blob), len(want), at)
	}
	if cap(blob) != len(blob) {
		t.Fatalf("%s: capture buffer has capacity %d for a %d-byte blob", label, cap(blob), len(blob))
	}
	return blob
}

// pickLive returns a random live stable id, half the time one of the
// eight newest (overlay leaves, while they last), or the root.
func pickLive(rng *rand.Rand, d *tree.Dyn) tree.NodeID {
	for try := 0; try < 64; try++ {
		v := tree.NodeID(rng.Intn(d.NumIDs()))
		if rng.Intn(2) == 0 {
			v = tree.NodeID(d.NumIDs() - 1 - rng.Intn(min(8, d.NumIDs())))
		}
		if d.Live(v) {
			return v
		}
	}
	return 0
}

// liveChildren lists the live children of p.
func liveChildren(d *tree.Dyn, p tree.NodeID) []tree.NodeID {
	var out []tree.NodeID
	for s := 1; s < d.NumIDs(); s++ {
		if v := tree.NodeID(s); d.Live(v) && d.Parent(v) == p {
			out = append(out, v)
		}
	}
	return out
}

// driveIncremental decodes ops into a random trace over m — batched
// and single requests, inserts, leaf and interior deletes,
// InsertBetween, rebuilds, Reset, direct ExportState calls and
// in-place restores of earlier captures — and captures after every
// step, each blob checked against the oracle. It returns how many
// captures were incremental exports.
func driveIncremental(t *testing.T, m *core.MutableTC, ops []byte, seed int64) (incremental int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blobs := [][]byte{checkCapture(t, "initial", m)}
	for i, op := range ops {
		d := m.Dyn()
		switch {
		case op < 120: // a batch of runs: the coalescing serve path
			var batch trace.Trace
			for r := 0; r < 1+int(op)%4; r++ {
				req := trace.Request{Node: pickLive(rng, d), Kind: trace.Kind(rng.Intn(2))}
				for k := 0; k < 1+rng.Intn(2*int(m.Alpha())); k++ {
					batch = append(batch, req)
				}
			}
			m.ServeBatch(batch)
		case op < 170:
			m.Serve(trace.Request{Node: pickLive(rng, d), Kind: trace.Kind(op & 1)})
		case op < 190:
			if _, err := m.Insert(pickLive(rng, d)); err != nil {
				t.Fatalf("op %d: insert: %v", i, err)
			}
		case op < 210: // a leaf withdrawal, or a lifting one for an interior rule
			if v := pickLive(rng, d); v != 0 {
				if err := m.Delete(v); err != nil {
					t.Fatalf("op %d: delete %d: %v", i, v, err)
				}
			}
		case op < 220:
			p := pickLive(rng, d)
			kids := liveChildren(d, p)
			adopt := kids[:rng.Intn(len(kids)+1)]
			if _, err := m.InsertBetween(p, adopt); err != nil {
				t.Fatalf("op %d: insert between %d and %v: %v", i, p, adopt, err)
			}
		case op < 230:
			m.Rebuild()
		case op < 240: // an export the next capture's codec does not see
			m.Serve(trace.Request{Node: pickLive(rng, d), Kind: trace.Positive})
			m.ExportState()
			m.Serve(trace.Request{Node: pickLive(rng, d), Kind: trace.Positive})
		case op < 248:
			if err := snapshot.RestoreInto(m, blobs[rng.Intn(len(blobs))]); err != nil {
				t.Fatalf("op %d: restore: %v", i, err)
			}
		default:
			m.Reset()
		}
		full := m.FullExports()
		blobs = append(blobs, checkCapture(t, "after op", m))
		if m.FullExports() == full {
			incremental++
		}
	}
	return incremental
}

// TestCaptureMatchesOracle is the byte-identity differential: long
// random traces on every shape, at capacities that end phases often
// and rarely and an α that grows counters past one varint byte, each
// capture equal to the oracle's from-scratch encoding of the live
// instance. A missed change mark or a mis-spliced entry
// would leave a stale entry that the oracle, which never reads a
// capture, does not reproduce.
func TestCaptureMatchesOracle(t *testing.T) {
	for shape := 0; shape < 4; shape++ {
		for _, cfg := range []core.Config{{Alpha: 2, Capacity: 3}, {Alpha: 2, Capacity: 40}, {Alpha: 80, Capacity: 40}} {
			tr := buildTree(shape, 60)
			m := core.NewMutable(tr, core.MutableConfig{Config: cfg, RebuildFrac: 0.25})
			rng := rand.New(rand.NewSource(int64(shape*100+cfg.Capacity) + cfg.Alpha))
			ops := make([]byte, 400)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			if inc := driveIncremental(t, m, ops, int64(shape)); inc < len(ops)/4 {
				t.Errorf("shape %d, %+v: only %d of %d captures were incremental", shape, cfg, inc, len(ops))
			}
		}
	}
}

// FuzzCaptureIncremental is the fuzz form of TestCaptureMatchesOracle:
// every capture of an arbitrary op trace must equal the oracle's. Run
// with
//
//	go test -fuzz FuzzCaptureIncremental ./internal/snapshot
//
// for continuous fuzzing; plain `go test` executes the seed corpus.
func FuzzCaptureIncremental(f *testing.F) {
	f.Add([]byte{7, 1, 2, 0, 1, 2, 3, 200, 5, 6, 180, 8, 9, 100, 225, 130})
	f.Add([]byte{20, 2, 5, 215, 0, 1, 2, 3, 213, 16, 238, 17, 245, 150, 250, 3})
	f.Add([]byte{12, 3, 40, 0, 0, 0, 128, 205, 128, 128, 205, 130, 7, 241, 160})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		n := 2 + int(data[0])%30
		tr := buildTree(int(data[1]), n)
		cfg := core.MutableConfig{Config: core.Config{
			Alpha:    int64(2 * (1 + int(data[2])%2)),
			Capacity: 1 + int(data[2]/2)%n,
		}, RebuildFrac: 0.25}
		driveIncremental(t, core.NewMutable(tr, cfg), data[3:], int64(n))
	})
}

// TestHandedOutBlobCannotPoisonCapture flips a byte of a returned blob
// in place, as any holder of it may: the next capture, patched from the
// encoder's private copy, must still equal the oracle's, and the
// flipped blob must fail verification.
func TestHandedOutBlobCannotPoisonCapture(t *testing.T) {
	tr := tree.CompleteKary(1023, 2)
	m := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 256}})
	input := trace.RandomMixed(rand.New(rand.NewSource(4)), tr, 4000)
	m.ServeBatch(input[:2000])
	blob := checkCapture(t, "first", m)
	blob[len(blob)/2] ^= 0xff
	blob[len(blob)-1] ^= 0x01
	full := m.FullExports()
	m.ServeBatch(input[2000:2040])
	checkCapture(t, "after the flip", m)
	if m.FullExports() != full {
		t.Fatal("the second capture re-derived every entry; the patch path went untested")
	}
	if err := (snapshot.Checkpointed{MutableTC: m}).VerifySnapshot(blob); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("VerifySnapshot of the flipped blob = %v, want ErrChecksum", err)
	}
}

// capIDSpace lowers the id-space bound of d to n ids through its
// unexported field: filling tree.MaxIDs ids for real would need about
// 10 GB.
func capIDSpace(d *tree.Dyn, n int) {
	f := reflect.ValueOf(d).Elem().FieldByName("maxIDs")
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetInt(int64(n))
}

// TestInsertPastIDSpaceChangesNothing pins that an insert into a full
// id space fails before any change: Insert (also under an overlay
// leaf, which would rebuild first), InsertBetween, and a topology
// message, which stops at the rejected insert as the engine's mutation
// rule does. The state and the capture stay as they were.
func TestInsertPastIDSpaceChangesNothing(t *testing.T) {
	tr := tree.CompleteKary(15, 2)
	m := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 2, Capacity: 6}, RebuildFrac: 1})
	for _, req := range trace.RandomMixed(rand.New(rand.NewSource(2)), tr, 200) {
		m.Serve(req)
	}
	leaf, err := m.Insert(3) // an overlay leaf
	if err != nil {
		t.Fatal(err)
	}
	capIDSpace(m.Dyn(), m.Dyn().NumIDs())
	before := checkCapture(t, "before", m)
	st := *m.ExportState()
	st.Nodes = append([]core.NodeState(nil), st.Nodes...)

	if _, err := m.Insert(1); !errors.Is(err, tree.ErrIDSpaceFull) {
		t.Fatalf("Insert into a full id space: %v, want ErrIDSpaceFull", err)
	}
	if _, err := m.Insert(leaf); !errors.Is(err, tree.ErrIDSpaceFull) {
		t.Fatalf("Insert under an overlay leaf into a full id space: %v, want ErrIDSpaceFull", err)
	}
	if _, err := m.InsertBetween(1, []tree.NodeID{3}); !errors.Is(err, tree.ErrIDSpaceFull) {
		t.Fatalf("InsertBetween into a full id space: %v, want ErrIDSpaceFull", err)
	}
	// A topology message stops at its first rejected mutation, so the
	// withdrawal after the failed insert is not applied either.
	if err := m.ApplyTopology([]trace.Mutation{trace.InsertMut(tree.None, 2), trace.DeleteMut(leaf)}); !errors.Is(err, tree.ErrIDSpaceFull) {
		t.Fatalf("ApplyTopology into a full id space: %v, want ErrIDSpaceFull", err)
	}
	if after := checkCapture(t, "after", m); !bytes.Equal(after, before) {
		t.Fatal("failed inserts changed the capture")
	}
	if got := m.ExportState(); !reflect.DeepEqual(*got, st) {
		t.Fatalf("failed inserts changed the state:\n got %+v\nwant %+v", *got, st)
	}
}

// TestCaptureSplicesResizedEntries drives counters across varint
// lengths at several nodes per capture — past 127 and back to 0 on a
// fetch, and dropped with a withdrawal — then changes the entries
// between them, so each patch splices around entries whose offsets
// the previous patch moved.
func TestCaptureSplicesResizedEntries(t *testing.T) {
	tr := tree.Star(60)
	m := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 200, Capacity: 50}, RebuildFrac: 1})
	run := func(v tree.NodeID, k int) trace.Trace {
		b := make(trace.Trace, k)
		for i := range b {
			b[i] = trace.Pos(v)
		}
		return b
	}
	checkCapture(t, "initial", m)
	windows := []func(){
		func() { m.ServeBatch(append(append(run(5, 130), run(20, 150)...), run(35, 140)...)) },
		func() { m.ServeBatch(append(append(run(10, 1), run(25, 2)...), run(40, 3)...)) },
		func() { m.ServeBatch(append(run(5, 70), run(35, 60)...)) }, // fetches 5 and 35: counters back to 0
		func() { m.ServeBatch(append(run(6, 1), run(34, 1)...)) },
		func() {
			if err := m.Delete(20); err != nil { // a tombstone: the counter varint goes
				t.Fatal(err)
			}
		},
		func() { m.ServeBatch(append(append(run(19, 1), run(21, 1)...), run(50, 129)...)) },
	}
	for i, w := range windows {
		full := m.FullExports()
		w()
		checkCapture(t, "window", m)
		if m.FullExports() != full {
			t.Fatalf("window %d re-derived every entry; the splice went untested", i)
		}
	}
}
