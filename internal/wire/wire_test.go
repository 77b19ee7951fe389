package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/trace"
	"repro/internal/tree"
)

// frameBytes builds a raw frame with full control over every header
// field, for the rejection table.
func frameBytes(m0, m1, ver, typ byte, length uint32, payload []byte) []byte {
	b := []byte{m0, m1, ver, typ}
	b = binary.LittleEndian.AppendUint32(b, length)
	return append(b, payload...)
}

func TestReadFrameRejections(t *testing.T) {
	okPayload := Serve{Tenant: 1, Seq: 1, Batch: trace.Trace{trace.Pos(3)}}.Encode()
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"one header byte", []byte{'T'}, ErrFormat},
		{"truncated header", []byte{'T', 'W', 1}, ErrFormat},
		{"bad magic", frameBytes('X', 'Y', 1, byte(TServe), 0, nil), ErrFormat},
		{"bad version", frameBytes('T', 'W', 99, byte(TServe), 0, nil), ErrFormat},
		{"unknown type", frameBytes('T', 'W', 1, 200, 0, nil), ErrFormat},
		{"type zero", frameBytes('T', 'W', 1, 0, 0, nil), ErrFormat},
		{"oversized length prefix", frameBytes('T', 'W', 1, byte(TServe), 1<<31-1, nil), ErrTooLarge},
		{"length just past limit", frameBytes('T', 'W', 1, byte(TServe), DefaultMaxPayload+1, nil), ErrTooLarge},
		{"truncated payload", frameBytes('T', 'W', 1, byte(TServe), uint32(len(okPayload)+4), okPayload), ErrFormat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(c.raw), 0)
			if !errors.Is(err, c.want) {
				t.Fatalf("ReadFrame = %v, want %v", err, c.want)
			}
		})
	}

	// A caller-chosen limit below the default is enforced.
	raw := AppendFrame(nil, TServe, okPayload)
	if _, err := ReadFrame(bytes.NewReader(raw), 2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("small limit: %v, want ErrTooLarge", err)
	}
	if f, err := ReadFrame(bytes.NewReader(raw), 0); err != nil || f.Type != TServe {
		t.Fatalf("valid frame rejected: %v %+v", err, f)
	}
}

func TestPayloadRejections(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var p []byte
		for _, v := range vs {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	type decoder func([]byte) error
	serve := func(p []byte) error { _, err := DecodeServe(p); return err }
	topo := func(p []byte) error { _, err := DecodeTopo(p); return err }
	ack := func(p []byte) error { _, err := DecodeAck(p); return err }
	statsReq := func(p []byte) error { _, err := DecodeStatsReq(p); return err }
	statsRep := func(p []byte) error { _, err := DecodeStatsReply(p); return err }
	retry := func(p []byte) error { _, err := DecodeRetry(p); return err }

	cases := []struct {
		name string
		dec  decoder
		p    []byte
	}{
		{"serve: empty", serve, nil},
		{"serve: truncated after tenant", serve, uv(1)},
		{"serve: count exceeds payload", serve, uv(1, 1, 0, 1<<40)},
		{"serve: truncated batch", serve, append(uv(1, 1, 0, 2), 0, 5)},
		{"serve: bad request kind", serve, append(uv(1, 1, 0, 1), 7, 5)},
		{"serve: node id out of range", serve, append(uv(1, 1, 0, 1), append([]byte{0}, uv(1<<62)...)...)},
		{"serve: trailing garbage", serve, append(Serve{Seq: 1}.Encode(), 0xFF)},
		{"serve: overlong varint", serve, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{"topo: count exceeds payload", topo, uv(1, 1, 0, 1<<40)},
		{"topo: bad mutation kind", topo, append(uv(0, 1, 0, 1), 9, 1, 1)},
		{"topo: truncated mutation", topo, append(uv(0, 1, 0, 1), 0, 4)},
		{"ack: empty", ack, nil},
		{"ack: bad dup flag", ack, append(uv(3), 9)},
		{"ack: trailing garbage", ack, append(Ack{Seq: 1}.Encode(), 1)},
		{"stats req: empty", statsReq, nil},
		{"stats req: trailing", statsReq, uv(1, 2)},
		{"stats reply: truncated", statsRep, uv(1, 2, 3)},
		{"retry: empty", retry, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.dec(c.p); !errors.Is(err, ErrFormat) {
				t.Fatalf("decode = %v, want ErrFormat", err)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	serveMsg := Serve{
		Tenant: 3, Seq: 41, DeadlineNs: 25_000_000,
		Batch: trace.Trace{trace.Pos(0), trace.Neg(17), trace.Pos(1 << 20)},
	}
	topoMsg := Topo{
		Tenant: 2, Seq: 7,
		Muts: []trace.Mutation{trace.InsertMut(40, 17), trace.DeleteMut(40)},
	}
	statsMsg := StatsReply{Tenant: 1, Rounds: 100, Serve: 42, Move: 64, Fetched: 8, Evicted: 6, Restarts: 1, Dropped: 0, LastSeq: 31}

	var buf bytes.Buffer
	if err := WriteFrame(&buf, TServe, serveMsg.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, TTopo, topoMsg.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, TStatsReply, statsMsg.Encode()); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil || f.Type != TServe {
		t.Fatalf("frame 1: %v %v", f.Type, err)
	}
	gotServe, err := DecodeServe(f.Payload)
	if err != nil || !reflect.DeepEqual(gotServe, serveMsg) {
		t.Fatalf("serve round-trip: %+v %v", gotServe, err)
	}
	f, err = ReadFrame(&buf, 0)
	if err != nil || f.Type != TTopo {
		t.Fatalf("frame 2: %v %v", f.Type, err)
	}
	gotTopo, err := DecodeTopo(f.Payload)
	if err != nil || !reflect.DeepEqual(gotTopo, topoMsg) {
		t.Fatalf("topo round-trip: %+v %v", gotTopo, err)
	}
	f, err = ReadFrame(&buf, 0)
	if err != nil || f.Type != TStatsReply {
		t.Fatalf("frame 3: %v %v", f.Type, err)
	}
	gotStats, err := DecodeStatsReply(f.Payload)
	if err != nil || gotStats != statsMsg {
		t.Fatalf("stats round-trip: %+v %v", gotStats, err)
	}

	for _, m := range []Ack{{Seq: 9, Dup: false}, {Seq: 10, Dup: true}} {
		got, err := DecodeAck(m.Encode())
		if err != nil || got != m {
			t.Fatalf("ack round-trip: %+v %v", got, err)
		}
	}
	if got, err := DecodeRetry((Retry{AfterNs: 5_000_000}).Encode()); err != nil || got.AfterNs != 5_000_000 {
		t.Fatalf("retry round-trip: %+v %v", got, err)
	}
	if got, err := DecodeStatsReq((StatsReq{Tenant: 6}).Encode()); err != nil || got.Tenant != 6 {
		t.Fatalf("stats req round-trip: %+v %v", got, err)
	}
	if got, err := DecodeErrMsg((ErrMsg{Msg: "tenant 9 out of range"}).Encode()); err != nil || got.Msg != "tenant 9 out of range" {
		t.Fatalf("err round-trip: %+v %v", got, err)
	}
}

// TestReadFramePayloadGrowsAsItArrives: a payload larger than one
// buffer step arrives intact through short reads, while a length prefix
// that claims the maximum and then stalls costs one step, not the claim.
func TestReadFramePayloadGrowsAsItArrives(t *testing.T) {
	payload := make([]byte, 5*payloadStep+12345)
	rand.New(rand.NewSource(1)).Read(payload)
	raw := AppendFrame(nil, TServe, payload)
	f, err := ReadFrame(iotest.HalfReader(bytes.NewReader(raw)), 0)
	if err != nil || f.Type != TServe || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("ReadFrame of a %d-byte payload: type %v, %d bytes, %v", len(payload), f.Type, len(f.Payload), err)
	}

	stalled := frameBytes('T', 'W', 1, byte(TServe), DefaultMaxPayload, []byte{1})
	var before, after runtime.MemStats
	const reads = 8
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, err := ReadFrame(bytes.NewReader(stalled), 0); !errors.Is(err, ErrFormat) {
			t.Fatalf("stalled payload: %v, want ErrFormat", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 2*payloadStep {
		t.Fatalf("a stalled %d-byte claim allocated %d bytes per read, want at most %d", DefaultMaxPayload, per, 2*payloadStep)
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes through ReadFrame and every
// payload decoder (they must never panic and must reject cleanly), and
// uses the same bytes to derive a random valid message whose
// encode/decode round-trip must be exact.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, TServe, Serve{Tenant: 1, Seq: 1, Batch: trace.Trace{trace.Pos(2)}}.Encode()))
	f.Add(AppendFrame(nil, TTopo, Topo{Seq: 2, Muts: []trace.Mutation{trace.InsertMut(5, 0)}}.Encode()))
	f.Add(AppendFrame(nil, TRetry, Retry{AfterNs: 1000}.Encode()))
	f.Add([]byte{'T', 'W', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Arbitrary bytes: frame reader and every decoder must return,
		// never panic, and an accepted frame must re-encode identically.
		if fr, err := ReadFrame(bytes.NewReader(raw), 1<<16); err == nil {
			if !fr.Type.valid() {
				t.Fatalf("accepted invalid type %d", fr.Type)
			}
			round := AppendFrame(nil, fr.Type, fr.Payload)
			if !bytes.Equal(round, raw[:len(round)]) {
				t.Fatalf("accepted frame does not re-encode to its input")
			}
		}
		for _, decode := range []func([]byte){
			func(p []byte) {
				// An accepted payload must survive re-encode/re-decode
				// unchanged (byte-level canonicality cannot hold: varints
				// have non-minimal encodings the stdlib accepts).
				if m, err := DecodeServe(p); err == nil {
					m2, err := DecodeServe(m.Encode())
					if err != nil || !reflect.DeepEqual(m, m2) {
						t.Fatalf("serve not idempotent: %+v -> %+v (%v)", m, m2, err)
					}
				}
			},
			func(p []byte) {
				if m, err := DecodeTopo(p); err == nil {
					m2, err := DecodeTopo(m.Encode())
					if err != nil || !reflect.DeepEqual(m, m2) {
						t.Fatalf("topo not idempotent: %+v -> %+v (%v)", m, m2, err)
					}
				}
			},
			func(p []byte) { _, _ = DecodeAck(p) },
			func(p []byte) { _, _ = DecodeRetry(p) },
			func(p []byte) { _, _ = DecodeStatsReq(p) },
			func(p []byte) { _, _ = DecodeStatsReply(p) },
			func(p []byte) { _, _ = DecodeErrMsg(p) },
		} {
			decode(raw)
		}

		// Derived valid message: exact round-trip.
		rng := rand.New(rand.NewSource(int64(len(raw))*2654435761 + seedFrom(raw)))
		batch := make(trace.Trace, rng.Intn(20))
		for i := range batch {
			batch[i] = trace.Request{Node: tree.NodeID(rng.Intn(1 << 20)), Kind: trace.Kind(rng.Intn(2))}
		}
		m := Serve{
			Tenant: rng.Intn(1 << 10), Seq: rng.Uint64() >> 1,
			DeadlineNs: int64(rng.Intn(1 << 30)), Batch: batch,
		}
		got, err := DecodeServe(m.Encode())
		if err != nil {
			t.Fatalf("valid serve rejected: %v", err)
		}
		if got.Tenant != m.Tenant || got.Seq != m.Seq || got.DeadlineNs != m.DeadlineNs || len(got.Batch) != len(m.Batch) {
			t.Fatalf("serve round-trip mismatch: %+v != %+v", got, m)
		}
		for i := range batch {
			if got.Batch[i] != batch[i] {
				t.Fatalf("request %d: %+v != %+v", i, got.Batch[i], batch[i])
			}
		}
	})
}

func seedFrom(raw []byte) int64 {
	var s int64
	for _, b := range raw {
		s = s*131 + int64(b)
	}
	return s
}
