package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tree"
)

// FuzzDifferential is a native fuzz target: arbitrary bytes decode
// into (tree shape, α, capacity, request sequence) and the optimized
// TC must match the brute-force reference exactly. Run with
//
//	go test -fuzz FuzzDifferential ./internal/core
//
// for continuous fuzzing; plain `go test` executes the seed corpus.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{7, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{12, 1, 4, 200, 199, 198, 0, 1, 2, 3})
	f.Add([]byte{5, 2, 2, 0, 0, 0, 128, 128, 128})
	f.Add([]byte{16, 3, 6, 255, 254, 1, 2, 250, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		n := 2 + int(data[0])%12 // 2..13 nodes
		var tr *tree.Tree
		switch data[1] % 4 {
		case 0:
			tr = tree.Path(n)
		case 1:
			tr = tree.Star(n)
		case 2:
			tr = tree.CompleteKary(n, 2)
		default:
			tr = tree.CompleteKary(n, 3)
		}
		alpha := int64(2 * (1 + int(data[2])%3))
		capa := 1 + int(data[2]/4)%n
		cfg := Config{Alpha: alpha, Capacity: capa}
		eff := New(tr, cfg)
		ref := NewReference(tr, cfg)
		for _, b := range data[3:] {
			req := trace.Request{Node: tree.NodeID(int(b&0x7f) % n), Kind: trace.Positive}
			if b&0x80 != 0 {
				req.Kind = trace.Negative
			}
			s1, m1 := eff.Serve(req)
			s2, m2 := ref.Serve(req)
			if s1 != s2 || m1 != m2 {
				t.Fatalf("cost mismatch: eff=(%d,%d) ref=(%d,%d) on %v%d (tree %v, α=%d, k=%d)",
					s1, m1, s2, m2, req.Kind, req.Node, tr, alpha, capa)
			}
			if eff.CacheLen() != ref.CacheLen() {
				t.Fatalf("cache divergence: %d vs %d", eff.CacheLen(), ref.CacheLen())
			}
		}
		if !sameMembers(eff.CacheMembers(), ref.CacheMembers()) {
			t.Fatalf("final caches differ: %v vs %v", eff.CacheMembers(), ref.CacheMembers())
		}
	})
}

// FuzzEngineDifferential replays random multi-tenant traces through
// the sharded serving engine (k shards, one TC each) and through
// per-shard sequential Reference instances, asserting identical total
// cost and final cache contents per tenant. Because each shard is a
// single-writer worker and per-tenant order is FIFO, the concurrent
// run must be exactly equivalent to the sequential replay. Run with
//
//	go test -fuzz FuzzEngineDifferential ./internal/core
//
// for continuous fuzzing; plain `go test` executes the seed corpus.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 1, 2, 2, 3, 130, 0, 4, 1, 5})
	f.Add([]byte{3, 5, 9, 200, 1, 0, 2, 129, 3, 7, 0, 255, 1, 1, 2, 2})
	f.Add([]byte{1, 2, 3, 0, 0, 0, 0, 128, 128, 0, 1, 0, 2})
	f.Add([]byte{4, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		k := 1 + int(data[0])%4 // 1..4 shards
		trees := make([]*tree.Tree, k)
		cfgs := make([]Config, k)
		for i := 0; i < k; i++ {
			b := data[1+i%4]
			n := 2 + int(b)%10 // 2..11 nodes
			switch (int(b) / 16) % 4 {
			case 0:
				trees[i] = tree.Path(n)
			case 1:
				trees[i] = tree.Star(n)
			case 2:
				trees[i] = tree.CompleteKary(n, 2)
			default:
				trees[i] = tree.CompleteKary(n, 3)
			}
			cfgs[i] = Config{
				Alpha:    int64(2 * (1 + int(b/4)%3)),
				Capacity: 1 + int(b/8)%n,
			}
		}
		tcs := make([]*TC, k)
		eng := engine.New(engine.Config{
			Shards: k,
			NewShard: func(i int) engine.Algorithm {
				tcs[i] = New(trees[i], cfgs[i])
				return tcs[i]
			},
			QueueLen: 2,
		})
		// Decode the byte stream into (tenant, request) pairs; submit
		// consecutive same-tenant runs as one batch, so batches of one
		// request and of many both reach ServeBatch.
		perTenant := make([]trace.Trace, k)
		var batch trace.Trace
		last := -1
		flush := func() {
			if last >= 0 && len(batch) > 0 {
				if err := eng.Submit(last, batch); err != nil {
					t.Fatal(err)
				}
			}
			batch = nil
		}
		for i := 5; i+1 < len(data); i += 2 {
			tenant := int(data[i]) % k
			b := data[i+1]
			req := trace.Request{Node: tree.NodeID(int(b&0x7f) % trees[tenant].Len()), Kind: trace.Positive}
			if b&0x80 != 0 {
				req.Kind = trace.Negative
			}
			if tenant != last {
				flush()
				last = tenant
			}
			batch = append(batch, req)
			perTenant[tenant] = append(perTenant[tenant], req)
		}
		flush()
		eng.Drain()
		st := eng.Stats()
		for i := 0; i < k; i++ {
			ref := NewReference(trees[i], cfgs[i])
			for _, req := range perTenant[i] {
				ref.Serve(req)
			}
			ss := st.Shards[i]
			led := ref.Ledger()
			if ss.Rounds != int64(len(perTenant[i])) {
				t.Fatalf("shard %d served %d rounds, want %d", i, ss.Rounds, len(perTenant[i]))
			}
			if ss.Total() != led.Total() || ss.Serve != led.Serve || ss.Move != led.Move {
				t.Fatalf("shard %d cost: engine (serve=%d move=%d) vs reference (serve=%d move=%d) on %v (α=%d, k=%d)",
					i, ss.Serve, ss.Move, led.Serve, led.Move, trees[i], cfgs[i].Alpha, cfgs[i].Capacity)
			}
			if !sameMembers(tcs[i].CacheMembers(), ref.CacheMembers()) {
				t.Fatalf("shard %d final caches differ: %v vs %v", i, tcs[i].CacheMembers(), ref.CacheMembers())
			}
		}
		eng.Close()
	})
}
