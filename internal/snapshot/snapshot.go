// Package snapshot is a versioned, checksummed binary codec for the
// full observable state of a dynamic-topology tree cache
// (core.MutableTC): Capture serializes core.MutableState — stable-id
// topology, per-node counters, cached set, overlay/pending mutations,
// ledger and round/phase/peak cursors — and Restore rebuilds an
// equivalent live instance without trace replay, through the same
// state-migrating injection pass the amortized rebuild uses.
//
// Wire format, version 2 (all integers little-endian; varints are
// unsigned LEB128):
//
//	magic   [6]byte  "TCSNAP"
//	version uint16   format version (currently 2)
//	crc32   uint32   IEEE CRC over the payload
//	payload varint-coded fields:
//	        alpha capacity rebuildFrac(float64 bits, 8 bytes) epoch
//	        pending round phaseRounds phase peak
//	        serve move fetched evicted          (ledger; alpha above)
//	        nextID                              (size of the id space)
//	        then, to the end, one entry per present stable id, ascending:
//	          flags byte (bit0 live, bit1 inSnap, bit2 cached, bit3 gap)
//	          gap varint (bit3 only): withdrawn ids skipped since the
//	            previous entry, ≥ 1
//	          parent+1 varint (0 encodes None)
//	          counter varint (live ids only)
//
// The present ids are the snapshot-resident ones (live or tombstoned)
// and the live overlay leaves. Every other id below nextID was
// withdrawn and is implicit — a run of them between two entries is one
// gap varint, a run after the last entry costs nothing — so a blob
// takes O(snapshot + overlay) bytes however many ids the instance ever
// withdrew, and a state without withdrawals encodes exactly as large
// as it did in version 1. Version 1 listed every id of the space with
// the same per-entry layout and no gap bit, the id count standing
// where nextID does; Restore still reads it.
//
// A capture costs what changed since the instance's previous one:
// core.MutableTC.ExportChanges re-derives only the entries whose
// node a paid request, an applied changeset or a topology mutation
// touched, and the encoder kept with the instance copies the previous
// payload's unchanged entries and re-encodes those: O(changed +
// overlay) plus one copy and one CRC of the blob. The first capture,
// and any after a phase end, Reset, rebuild or restore, with too many
// entries changed to patch (the export's sweep cutover), or after an
// export the encoder did not see, encodes every entry afresh. The
// bytes are the same either way.
//
// Every read is bounds-checked and every integrity failure — bad
// magic, unknown version, truncation, checksum mismatch, an id space
// beyond the node-id range, a gap past it — is returned as an error
// wrapping ErrFormat or ErrChecksum; corrupted bytes never panic. A
// checksum-valid payload is additionally structurally validated by
// core.RestoreMutable (id order, live parents, downward-closed cached
// set, capacity) before any state is built.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/tree"
)

// Version is the current snapshot format version. Restore reads every
// version up to it and rejects snapshots written by a newer format.
const Version = 2

const headerLen = 12 // magic(6) + version(2) + crc32(4)

// Entry flag bits.
const (
	flagLive   = 1 << 0
	flagInSnap = 1 << 1
	flagCached = 1 << 2
	flagGap    = 1 << 3 // version 2: a gap varint follows the flags
)

var magic = [6]byte{'T', 'C', 'S', 'N', 'A', 'P'}

var (
	// ErrChecksum reports payload corruption: the stored CRC does not
	// match the payload bytes.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrFormat reports a malformed envelope or payload (bad magic,
	// unsupported version, truncated or overlong data).
	ErrFormat = errors.New("snapshot: malformed")
)

// wire converts a captured field to its varint value. Captured state
// is non-negative by construction (and entry ids ascend, so gaps are
// too); guard so a future field change cannot silently wrap through
// uvarint.
func wire(v int64) uint64 {
	if v < 0 {
		panic(fmt.Sprintf("snapshot: negative field %d in captured state", v))
	}
	return uint64(v)
}

// uvarintLen is the encoded length of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Capture serializes m's full observable state into a fresh blob. The
// encoding of the instance's previous capture is kept with the
// instance (core.MutableTC.Codec), so a capture whose export is the
// direct successor of that one copies the unchanged entries and
// re-encodes only the changed ones; see encoder. The bytes are exactly
// those of a capture from scratch.
func Capture(m *core.MutableTC) ([]byte, error) {
	st, ch := m.ExportChanges()
	e, _ := m.Codec().(*encoder)
	if e == nil {
		e = new(encoder)
		m.SetCodec(e)
	}
	return e.capture(m, st, ch), nil
}

// encoder is one instance's capture cache: a private copy of the
// snapshot-entry section of the last payload it wrote (entries
// 0..snap−1 of the export numbered seq) and where each entry starts in
// it. It never reads a blob it has handed out: the engine keeps blobs
// as recovery points and writes them to disk, and any holder may
// modify its copy.
type encoder struct {
	seq  uint64  // export the cache holds; 0 while it holds none
	body []byte  // encoded snapshot entries of export seq
	off  []int32 // off[i]: start of entry i in body; off[snap] = len(body)
	lens []int32 // scratch: re-encoded lengths of the changed entries
}

// capture encodes one export. If it is the direct successor of the
// cached one, the blob is the header, the cached body with each changed
// entry re-encoded in place of its old bytes (spliced when its length
// changed), and the overlay leaves re-listed: O(changed + overlay)
// encoding plus one copy of the body and one CRC pass. Otherwise every
// entry is encoded afresh into the cache first.
func (e *encoder) capture(m *core.MutableTC, st *core.MutableState, ch core.Changes) []byte {
	patch := !ch.Full && e.seq != 0 && ch.Seq == e.seq+1 && ch.Snap == len(e.off)-1
	e.seq = 0 // until this capture completes: a panic leaves no half-patched cache
	nodes := st.Nodes
	if !patch {
		e.encodeAll(nodes[:ch.Snap])
	}
	// Header fields in wire order; rebuildFrac's 8 fixed bytes follow
	// the first two. Sizing validates every field written below (wire).
	head := [...]int64{m.Alpha(), int64(m.Capacity()),
		st.Epoch, int64(st.Pending), st.Round, st.PhaseRounds, st.Phase, int64(st.Peak),
		st.Led.Serve, st.Led.Move, st.Led.Fetched, st.Led.Evicted, int64(st.NextID)}
	size := headerLen + 8 + len(e.body)
	for _, v := range head {
		size += uvarintLen(wire(v))
	}
	e.lens = e.lens[:0]
	resized := false
	if patch {
		for _, i := range ch.Changed {
			n := entryLen(&nodes[i], prevID(nodes, int(i)))
			e.lens = append(e.lens, int32(n))
			if d := n - int(e.off[i+1]-e.off[i]); d != 0 {
				size += d
				resized = true
			}
		}
	}
	for i := ch.Snap; i < len(nodes); i++ {
		size += entryLen(&nodes[i], prevID(nodes, i))
	}

	out := make([]byte, headerLen, size)
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[6:], Version)
	for _, v := range head[:2] {
		out = binary.AppendUvarint(out, uint64(v))
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.RebuildFrac()))
	for _, v := range head[2:] {
		out = binary.AppendUvarint(out, uint64(v))
	}
	bodyAt := len(out)
	if patch {
		pos := int32(0) // next old-body byte to copy
		for _, i := range ch.Changed {
			out = append(out, e.body[pos:e.off[i]]...)
			out = appendEntry(out, &nodes[i], prevID(nodes, int(i)))
			pos = e.off[i+1]
		}
		out = append(out, e.body[pos:]...)
	} else {
		out = append(out, e.body...)
	}
	body := out[bodyAt:]
	for i := ch.Snap; i < len(nodes); i++ {
		out = appendEntry(out, &nodes[i], prevID(nodes, i))
	}
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[headerLen:]))

	if patch {
		e.update(body, ch.Changed, resized)
	}
	e.seq = ch.Seq
	return out
}

// update brings the cache to the body just written: the changed
// entries' bytes when every length stayed, otherwise the whole body
// and the offsets shifted past each resized entry.
func (e *encoder) update(body []byte, changed []tree.NodeID, resized bool) {
	if !resized {
		for _, i := range changed {
			copy(e.body[e.off[i]:e.off[i+1]], body[e.off[i]:])
		}
		return
	}
	e.body = append(e.body[:0], body...)
	shift, j := int32(0), 0 // offsets before j are final
	for k, i := range changed {
		old := e.off[i+1] - e.off[i]
		if shift != 0 {
			for ; j <= int(i); j++ {
				e.off[j] += shift
			}
		}
		j = int(i) + 1
		shift += e.lens[k] - old
	}
	if shift != 0 {
		for ; j < len(e.off); j++ {
			e.off[j] += shift
		}
	}
}

// encodeAll encodes the snapshot entries into the cache from scratch.
func (e *encoder) encodeAll(snap []core.NodeState) {
	e.body = e.body[:0]
	e.off = e.off[:0]
	for i := range snap {
		e.off = append(e.off, int32(len(e.body)))
		e.body = appendEntry(e.body, &snap[i], prevID(snap, i))
	}
	e.off = append(e.off, int32(len(e.body)))
}

// prevID is the id entry i's gap counts from.
func prevID(nodes []core.NodeState, i int) tree.NodeID {
	if i == 0 {
		return -1
	}
	return nodes[i-1].ID
}

// entryLen is the encoded length of entry ns after id prev.
func entryLen(ns *core.NodeState, prev tree.NodeID) int {
	n := 1 + uvarintLen(wire(int64(ns.Parent)+1))
	if gap := int64(ns.ID) - int64(prev) - 1; gap != 0 {
		n += uvarintLen(wire(gap))
	}
	if ns.Live {
		n += uvarintLen(wire(ns.Cnt))
	}
	return n
}

// appendEntry appends entry ns, which follows id prev.
func appendEntry(out []byte, ns *core.NodeState, prev tree.NodeID) []byte {
	var flags byte
	if ns.Live {
		flags |= flagLive
	}
	if ns.InSnap {
		flags |= flagInSnap
	}
	if ns.Cached {
		flags |= flagCached
	}
	gap := wire(int64(ns.ID) - int64(prev) - 1)
	if gap != 0 {
		flags |= flagGap
	}
	out = append(out, flags)
	if gap != 0 {
		out = binary.AppendUvarint(out, gap)
	}
	out = binary.AppendUvarint(out, wire(int64(ns.Parent)+1))
	if ns.Live {
		out = binary.AppendUvarint(out, wire(ns.Cnt))
	}
	return out
}

// Verify checks the envelope and payload checksum without decoding any
// state. It is cheap enough to run on every periodic checkpoint.
func Verify(data []byte) error {
	_, _, err := payload(data)
	return err
}

// payload validates the envelope and returns the checksummed payload
// and its format version.
func payload(data []byte) ([]byte, uint16, error) {
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrFormat, len(data), headerLen)
	}
	if [6]byte(data[:6]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	v := binary.LittleEndian.Uint16(data[6:8])
	if v < 1 || v > Version {
		return nil, 0, fmt.Errorf("%w: unsupported format version %d (have 1..%d)", ErrFormat, v, Version)
	}
	p := data[headerLen:]
	if want, got := binary.LittleEndian.Uint32(data[8:12]), crc32.ChecksumIEEE(p); want != got {
		return nil, 0, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, want, got)
	}
	return p, v, nil
}

// reader is a bounds-checked payload cursor: the first failed read
// latches an error and every later read is a no-op, so decode logic
// can stay linear and check once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

func (r *reader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated %s at offset %d", field, r.off)
		return 0
	}
	r.off += n
	return v
}

// nonneg reads a uvarint that must fit a non-negative int64.
func (r *reader) nonneg(field string) int64 {
	v := r.uvarint(field)
	if v > math.MaxInt64 {
		r.fail("%s overflows int64", field)
		return 0
	}
	return int64(v)
}

func (r *reader) byte(field string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated %s at offset %d", field, r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) float64(field string) float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated %s at offset %d", field, r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// decode parses a verified payload of the given format version into
// configuration and state.
func decode(p []byte, version uint16) (core.MutableConfig, *core.MutableState, error) {
	r := &reader{b: p}
	var cfg core.MutableConfig
	cfg.Alpha = r.nonneg("alpha")
	cfg.Capacity = int(r.nonneg("capacity"))
	cfg.RebuildFrac = r.float64("rebuildFrac")
	st := &core.MutableState{
		Led: cache.Ledger{Alpha: cfg.Alpha},
	}
	st.Epoch = r.nonneg("epoch")
	st.Pending = int(r.nonneg("pending"))
	st.Round = r.nonneg("round")
	st.PhaseRounds = r.nonneg("phaseRounds")
	st.Phase = r.nonneg("phase")
	st.Peak = int(r.nonneg("peak"))
	st.Led.Serve = r.nonneg("serve")
	st.Led.Move = r.nonneg("move")
	st.Led.Fetched = r.nonneg("fetched")
	st.Led.Evicted = r.nonneg("evicted")
	ids := r.nonneg("ids")
	if r.err != nil {
		return cfg, nil, r.err
	}
	// Restore memory is O(ids), so the id space is bounded before
	// anything is allocated: it must fit the node-id range, and a
	// version-1 payload lists every id in at least two bytes.
	if ids < 1 || ids > tree.MaxIDs || (version == 1 && ids > int64(len(p))) {
		return cfg, nil, fmt.Errorf("%w: id space of %d ids inconsistent with the node-id range or payload size %d", ErrFormat, ids, len(p))
	}
	st.NextID = int(ids)
	maxFlags := byte(flagLive | flagInSnap | flagCached)
	if version >= 2 {
		maxFlags |= flagGap
	}
	// Every entry takes at least two bytes (flags + parent).
	st.Nodes = make([]core.NodeState, 0, min(ids, int64(len(p)-r.off)/2))
	next := int64(0) // the id of the next entry unless a gap precedes it
	for r.off < len(p) {
		flags := r.byte("flags")
		if flags > maxFlags {
			r.fail("unknown flag bits %08b on id %d", flags, next)
		}
		if flags&flagGap != 0 {
			gap := r.nonneg("gap")
			// Checked before adding, so no gap can wrap the id back to a
			// duplicate or a smaller one.
			if r.err == nil && (gap < 1 || gap >= ids-next) {
				return cfg, nil, fmt.Errorf("%w: gap of %d ids after id %d runs past the id space of %d ids", ErrFormat, gap, next-1, ids)
			}
			next += gap
		}
		if next >= ids {
			r.fail("entry beyond the id space of %d ids", ids)
		}
		parent := r.nonneg("parent")
		if parent > ids {
			r.fail("parent %d of id %d out of range", parent-1, next)
		}
		ns := core.NodeState{
			ID:     tree.NodeID(next),
			Parent: tree.NodeID(parent - 1),
			Live:   flags&flagLive != 0,
			InSnap: flags&flagInSnap != 0,
			Cached: flags&flagCached != 0,
		}
		if ns.Live {
			ns.Cnt = r.nonneg("counter")
		}
		if r.err != nil {
			return cfg, nil, r.err
		}
		// Version 1 lists withdrawn ids too, with no flags set; version 2
		// writes present ids only, and restore rejects an entry without
		// state.
		if version >= 2 || flags != 0 {
			st.Nodes = append(st.Nodes, ns)
		}
		next++
	}
	if version == 1 && next != ids {
		return cfg, nil, fmt.Errorf("%w: %d of %d ids listed", ErrFormat, next, ids)
	}
	return cfg, st, nil
}

// Restore reconstructs a live instance from a snapshot, with the
// configuration (alpha, capacity, rebuild fraction) the capture
// recorded and no observer attached. Corrupted or inconsistent bytes
// return an error; Restore never panics on input data.
func Restore(data []byte) (*core.MutableTC, error) {
	p, version, err := payload(data)
	if err != nil {
		return nil, err
	}
	cfg, st, err := decode(p, version)
	if err != nil {
		return nil, err
	}
	return core.RestoreMutable(cfg, st)
}

// RestoreInto replaces m's state in place with a captured snapshot,
// keeping m's configuration and attached observer. The snapshot's
// alpha and capacity must match m's; m is untouched on any error.
func RestoreInto(m *core.MutableTC, data []byte) error {
	p, version, err := payload(data)
	if err != nil {
		return err
	}
	cfg, st, err := decode(p, version)
	if err != nil {
		return err
	}
	if cfg.Alpha != m.Alpha() || cfg.Capacity != m.Capacity() {
		return fmt.Errorf("snapshot: configuration mismatch: snapshot has alpha=%d capacity=%d, instance has alpha=%d capacity=%d",
			cfg.Alpha, cfg.Capacity, m.Alpha(), m.Capacity())
	}
	return m.ImportState(st)
}

// Checkpointed adapts a core.MutableTC to the engine's optional
// Checkpointer surface: Snapshot captures the full observable state
// through the codec, Restore rebuilds it in place (atomic on error)
// and VerifySnapshot integrity-checks a blob without decoding state —
// the engine runs it on every periodic checkpoint so fault-corrupted
// bytes are rejected at capture time, while the previous good
// checkpoint and its journal stay in force.
type Checkpointed struct{ *core.MutableTC }

// Snapshot captures the instance's state as a self-describing blob.
func (c Checkpointed) Snapshot() ([]byte, error) { return Capture(c.MutableTC) }

// Restore replaces the instance's state from a blob, in place.
func (c Checkpointed) Restore(data []byte) error { return RestoreInto(c.MutableTC, data) }

// VerifySnapshot checks a blob's integrity without decoding state.
func (c Checkpointed) VerifySnapshot(data []byte) error { return Verify(data) }
