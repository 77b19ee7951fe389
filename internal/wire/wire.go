// Package wire is the compact length-prefixed binary framing the
// treecached daemon speaks over TCP. One frame is one message:
//
//	magic   [2]byte  "TW"
//	version uint8    protocol version (currently 1)
//	type    uint8    frame type (see Type)
//	length  uint32   payload length, little-endian
//	payload [length]byte
//
// Requests carry the internal/trace multi-tenant event vocabulary:
// serve batches (TServe), topology churn (TTopo), an on-demand
// checkpoint (TSnapshot) and a stats query (TStats). Replies are TAck
// (applied, with the echoed sequence number and a duplicate flag),
// TRetry (shed load: an explicit retry-after hint instead of a dropped
// connection), TError (a terminal per-request failure) and TStatsReply.
//
// Robustness contract: every decoder is pure and bounds-checked —
// truncated frames, oversized length prefixes, unknown versions or
// types, and garbage payloads all return an error wrapping ErrFormat
// or ErrTooLarge, never panic and never allocate proportionally to an
// attacker-controlled count without the bytes to back it. ReadFrame
// enforces a maximum payload size so a malformed length prefix cannot
// wedge a connection handler into a giant allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/trace"
	"repro/internal/tree"
)

// Version is the protocol version emitted and accepted.
const Version = 1

// HeaderLen is the fixed frame header size.
const HeaderLen = 8

// DefaultMaxPayload bounds a frame's payload unless the caller picks
// another limit: large enough for a 64k-request batch, small enough
// that a garbage length prefix cannot balloon memory.
const DefaultMaxPayload = 1 << 20

var magic = [2]byte{'T', 'W'}

var (
	// ErrFormat reports a malformed frame or payload.
	ErrFormat = errors.New("wire: malformed")
	// ErrTooLarge reports a length prefix beyond the reader's limit.
	ErrTooLarge = errors.New("wire: frame exceeds maximum payload size")
)

// Type enumerates the frame types.
type Type uint8

const (
	// TServe submits a batch of requests for one tenant.
	TServe Type = 1
	// TTopo submits topology mutations (churn) for one tenant.
	TTopo Type = 2
	// TStats queries one tenant's cumulative cost ledger.
	TStats Type = 3
	// TSnapshot asks the daemon to checkpoint every shard to its
	// state directory now (the same consistency point SIGTERM takes).
	TSnapshot Type = 4

	// TAck acknowledges an applied TServe/TTopo/TSnapshot.
	TAck Type = 16
	// TRetry sheds the request with an explicit retry-after hint.
	TRetry Type = 17
	// TError reports a terminal failure for the request.
	TError Type = 18
	// TStatsReply answers a TStats query.
	TStatsReply Type = 19
)

func (t Type) valid() bool {
	switch t {
	case TServe, TTopo, TStats, TSnapshot, TAck, TRetry, TError, TStatsReply:
		return true
	}
	return false
}

// Frame is one decoded frame.
type Frame struct {
	Type    Type
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns it.
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	dst = append(dst, magic[0], magic[1], Version, byte(t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	buf := make([]byte, 0, HeaderLen+len(payload))
	_, err := w.Write(AppendFrame(buf, t, payload))
	return err
}

// payloadStep is the most ReadFrame allocates for a payload before its
// bytes arrive: a length prefix claims up to maxPayload bytes, but the
// buffer starts at min(claim, payloadStep) and at most doubles per read
// that fills it, so a peer that claims a large payload and stalls pins
// only what it has sent, within a factor of two, plus one step.
const payloadStep = 64 << 10

// ReadFrame reads one frame, rejecting payloads larger than maxPayload
// (0 selects DefaultMaxPayload). A clean EOF before the first header
// byte returns io.EOF; a header or payload cut short returns
// io.ErrUnexpectedEOF wrapped in ErrFormat.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderLen]byte
	// ReadFull returns io.EOF only when no byte arrived.
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrFormat, hdr[:2])
	}
	if hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: unsupported version %d", ErrFormat, hdr[2])
	}
	t := Type(hdr[3])
	if !t.valid() {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrFormat, hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > int64(maxPayload) {
		return Frame{}, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, n, maxPayload)
	}
	payload := make([]byte, min(int(n), payloadStep))
	for got := 0; ; {
		k, err := io.ReadFull(r, payload[got:])
		got += k
		if err != nil {
			return Frame{}, fmt.Errorf("%w: payload: %v", ErrFormat, err)
		}
		if got == int(n) {
			return Frame{Type: t, Payload: payload}, nil
		}
		payload = append(payload, make([]byte, min(int(n)-got, got))...)
	}
}

// dec is the shared bounds-checked payload reader. Every method
// records the first failure; callers check err once at the end.
type dec struct {
	p   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

func (d *dec) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong %s", field)
		return 0
	}
	d.off += n
	return v
}

// count reads a element count and rejects counts that cannot possibly
// fit in the remaining bytes at minBytes each — the guard that keeps a
// garbage count from allocating unbounded memory.
func (d *dec) count(field string, minBytes int) int {
	v := d.uvarint(field)
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.p)-d.off)/uint64(minBytes) {
		d.fail("%s %d exceeds remaining payload", field, v)
		return 0
	}
	return int(v)
}

func (d *dec) byte(field string) byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.p) {
		d.fail("truncated %s", field)
		return 0
	}
	b := d.p[d.off]
	d.off++
	return b
}

func (d *dec) nodeID(field string) tree.NodeID {
	v := d.uvarint(field)
	if d.err == nil && v > uint64(int32(1)<<30) {
		d.fail("%s %d out of range", field, v)
	}
	return tree.NodeID(v)
}

func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.p) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(d.p)-d.off)
	}
	return nil
}

// Serve is a TServe payload: one tenant's ordered batch. Seq is the
// tenant's batch sequence number (1-based, gapless); the daemon
// deduplicates on it, making retransmission after a lost ack or a
// daemon restart idempotent. DeadlineNs is the client's remaining
// per-request budget in nanoseconds (relative, so no clock sync is
// needed); 0 means no deadline.
type Serve struct {
	Tenant     int
	Seq        uint64
	DeadlineNs int64
	Batch      trace.Trace
}

// Encode serializes the request payload.
func (m Serve) Encode() []byte {
	p := make([]byte, 0, 16+2*len(m.Batch))
	p = binary.AppendUvarint(p, uint64(m.Tenant))
	p = binary.AppendUvarint(p, m.Seq)
	p = binary.AppendUvarint(p, uint64(m.DeadlineNs))
	p = binary.AppendUvarint(p, uint64(len(m.Batch)))
	for _, r := range m.Batch {
		p = append(p, byte(r.Kind))
		p = binary.AppendUvarint(p, uint64(r.Node))
	}
	return p
}

// DecodeServe parses a TServe payload.
func DecodeServe(p []byte) (Serve, error) {
	d := &dec{p: p}
	var m Serve
	m.Tenant = int(d.uvarint("tenant"))
	m.Seq = d.uvarint("seq")
	m.DeadlineNs = int64(d.uvarint("deadline"))
	n := d.count("batch length", 2)
	if d.err == nil && n > 0 {
		m.Batch = make(trace.Trace, 0, n)
		for i := 0; i < n; i++ {
			k := d.byte("request kind")
			if d.err == nil && k > byte(trace.Negative) {
				d.fail("request kind %d", k)
			}
			v := d.nodeID("node id")
			if d.err != nil {
				break
			}
			m.Batch = append(m.Batch, trace.Request{Node: v, Kind: trace.Kind(k)})
		}
	}
	if err := d.finish(); err != nil {
		return Serve{}, err
	}
	return m, nil
}

// Topo is a TTopo payload: topology mutations in the tenant's stream
// order, sharing the tenant's sequence space with Serve batches.
type Topo struct {
	Tenant     int
	Seq        uint64
	DeadlineNs int64
	Muts       []trace.Mutation
}

// Encode serializes the request payload.
func (m Topo) Encode() []byte {
	p := make([]byte, 0, 16+3*len(m.Muts))
	p = binary.AppendUvarint(p, uint64(m.Tenant))
	p = binary.AppendUvarint(p, m.Seq)
	p = binary.AppendUvarint(p, uint64(m.DeadlineNs))
	p = binary.AppendUvarint(p, uint64(len(m.Muts)))
	for _, mu := range m.Muts {
		p = append(p, byte(mu.Kind))
		p = binary.AppendUvarint(p, uint64(mu.Node))
		p = binary.AppendUvarint(p, uint64(mu.Parent)+1)
	}
	return p
}

// DecodeTopo parses a TTopo payload.
func DecodeTopo(p []byte) (Topo, error) {
	d := &dec{p: p}
	var m Topo
	m.Tenant = int(d.uvarint("tenant"))
	m.Seq = d.uvarint("seq")
	m.DeadlineNs = int64(d.uvarint("deadline"))
	n := d.count("mutation count", 3)
	if d.err == nil && n > 0 {
		m.Muts = make([]trace.Mutation, 0, n)
		for i := 0; i < n; i++ {
			k := d.byte("mutation kind")
			if d.err == nil && k > byte(trace.MutDelete) {
				d.fail("mutation kind %d", k)
			}
			node := d.nodeID("mutation node")
			par := d.uvarint("mutation parent")
			if d.err == nil && par > uint64(int32(1)<<30)+1 {
				d.fail("mutation parent %d out of range", par)
			}
			if d.err != nil {
				break
			}
			m.Muts = append(m.Muts, trace.Mutation{
				Kind: trace.MutKind(k), Node: node, Parent: tree.NodeID(par) - 1,
			})
		}
	}
	if err := d.finish(); err != nil {
		return Topo{}, err
	}
	return m, nil
}

// StatsReq is a TStats payload: a cumulative-ledger query for one
// tenant.
type StatsReq struct{ Tenant int }

// Encode serializes the request payload.
func (m StatsReq) Encode() []byte {
	return binary.AppendUvarint(nil, uint64(m.Tenant))
}

// DecodeStatsReq parses a TStats payload.
func DecodeStatsReq(p []byte) (StatsReq, error) {
	d := &dec{p: p}
	m := StatsReq{Tenant: int(d.uvarint("tenant"))}
	if err := d.finish(); err != nil {
		return StatsReq{}, err
	}
	return m, nil
}

// Ack is a TAck payload: Seq echoes the applied request's sequence
// number; Dup marks an idempotent re-submission that was already
// applied (acknowledged without re-serving).
type Ack struct {
	Seq uint64
	Dup bool
}

// Encode serializes the reply payload.
func (m Ack) Encode() []byte {
	p := binary.AppendUvarint(nil, m.Seq)
	if m.Dup {
		return append(p, 1)
	}
	return append(p, 0)
}

// DecodeAck parses a TAck payload.
func DecodeAck(p []byte) (Ack, error) {
	d := &dec{p: p}
	var m Ack
	m.Seq = d.uvarint("seq")
	b := d.byte("dup flag")
	if d.err == nil && b > 1 {
		d.fail("dup flag %d", b)
	}
	m.Dup = b == 1
	if err := d.finish(); err != nil {
		return Ack{}, err
	}
	return m, nil
}

// Retry is a TRetry payload: the daemon shed the request (per-tenant
// quota exhausted, shard queue full past the deadline, or draining)
// and the client should retry after AfterNs nanoseconds.
type Retry struct{ AfterNs int64 }

// Encode serializes the reply payload.
func (m Retry) Encode() []byte {
	return binary.AppendUvarint(nil, uint64(m.AfterNs))
}

// DecodeRetry parses a TRetry payload.
func DecodeRetry(p []byte) (Retry, error) {
	d := &dec{p: p}
	m := Retry{AfterNs: int64(d.uvarint("after"))}
	if err := d.finish(); err != nil {
		return Retry{}, err
	}
	return m, nil
}

// ErrMsg is a TError payload: a terminal, non-retryable failure (bad
// tenant, sequence gap, rejected mutation). The daemon keeps the
// connection open; the request itself is lost.
type ErrMsg struct{ Msg string }

// maxErrLen caps an error message so replies stay small frames.
const maxErrLen = 1 << 12

// Encode serializes the reply payload.
func (m ErrMsg) Encode() []byte {
	s := m.Msg
	if len(s) > maxErrLen {
		s = s[:maxErrLen]
	}
	return []byte(s)
}

// DecodeErrMsg parses a TError payload.
func DecodeErrMsg(p []byte) (ErrMsg, error) {
	if len(p) > maxErrLen {
		return ErrMsg{}, fmt.Errorf("%w: error message %d bytes", ErrFormat, len(p))
	}
	return ErrMsg{Msg: string(p)}, nil
}

// StatsReply is a TStatsReply payload: one tenant's cumulative served
// ledger as of its last completed batch, plus the supervision
// counters a client needs to reason about faults.
type StatsReply struct {
	Tenant   int
	Rounds   int64
	Serve    int64
	Move     int64
	Fetched  int64
	Evicted  int64
	Restarts int64
	Dropped  int64
	// LastSeq is the tenant's highest acknowledged batch sequence
	// number — it survives server restarts (the sequence table is
	// checkpointed), so a fresh client process resumes numbering from
	// here instead of colliding with its predecessor's batches.
	LastSeq uint64
}

// Total returns Serve + Move.
func (m StatsReply) Total() int64 { return m.Serve + m.Move }

// Encode serializes the reply payload.
func (m StatsReply) Encode() []byte {
	p := make([]byte, 0, 40)
	p = binary.AppendUvarint(p, uint64(m.Tenant))
	for _, v := range [...]int64{m.Rounds, m.Serve, m.Move, m.Fetched, m.Evicted, m.Restarts, m.Dropped} {
		p = binary.AppendUvarint(p, uint64(v))
	}
	return binary.AppendUvarint(p, m.LastSeq)
}

// DecodeStatsReply parses a TStatsReply payload.
func DecodeStatsReply(p []byte) (StatsReply, error) {
	d := &dec{p: p}
	var m StatsReply
	m.Tenant = int(d.uvarint("tenant"))
	for _, f := range [...]*int64{&m.Rounds, &m.Serve, &m.Move, &m.Fetched, &m.Evicted, &m.Restarts, &m.Dropped} {
		*f = int64(d.uvarint("ledger field"))
	}
	m.LastSeq = d.uvarint("last seq")
	if err := d.finish(); err != nil {
		return StatsReply{}, err
	}
	return m, nil
}
