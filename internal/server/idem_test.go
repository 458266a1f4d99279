package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/pmem"
)

// TestIdemRecordStaysCached pins why the idempotency table is ordered. Every
// client in the repository sends ascending keys, so each record lands at the
// B+-tree's right edge, whose path the cache already holds, and a steady
// stream of requests reads nothing from the media. A hash of the same
// capacity (falcon serve's default, 2^20 keys: a 32 MiB bucket array against
// a 2 MiB cache) put each key in a cold bucket, one read fill per request.
func TestIdemRecordStaysCached(t *testing.T) {
	const capacity = 1 << 20
	const warm, n = 2000, 1000
	cfg := core.FalconConfig()
	cfg.Threads = 1
	specs := WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: ServeSchema(0), Capacity: 64, KeyCol: 0, IndexKind: index.Hash,
	}}, capacity)
	e, err := core.New(pmem.NewSystem(pmem.Config{DeviceBytes: 1 << 30}), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(key uint64, op Op) {
		t.Helper()
		resp, err := Apply(e, 0, key, &TxnRequest{Ops: []Op{op}}, nil)
		if err != nil || resp.Replayed {
			t.Fatalf("key %d: %+v, %v", key, resp, err)
		}
	}
	apply(1, Op{Op: "insert", Table: "kv", Key: 1})
	add := Op{Op: "add", Table: "kv", Key: 1, Val: 1}
	for k := uint64(2); k <= warm; k++ {
		apply(k, add)
	}
	before := e.ObsSnapshot().Mem.XPBufferReadFills
	for k := uint64(warm + 1); k <= warm+n; k++ {
		apply(k, add)
	}
	fills := e.ObsSnapshot().Mem.XPBufferReadFills - before
	t.Logf("%d read fills over %d requests", fills, n)
	if fills >= n/10 {
		t.Fatalf("%d read fills over %d requests with ascending keys, want fewer than %d", fills, n, n/10)
	}
}

// TestTwoWorkersShareTheIdemTree drives Apply from workers 0 and 1 at once,
// free-running: both insert interleaved ascending keys (worker w sends
// 3+2i+w) at the one right edge of the idempotency tree, and between inserts
// each replays keys either worker has had acknowledged, so optimistic Read
// probes run beside the other worker's inserts. A fresh key executes exactly
// once (worker w alone adds to row w+1, so its i-th add answers i+1); a
// replay answers the digest its first execution recorded.
func TestTwoWorkersShareTheIdemTree(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 1000
	}
	e := newTestEngine(t, 2)
	for w := uint64(0); w < 2; w++ {
		if _, err := Apply(e, 0, 1+w, &TxnRequest{Ops: []Op{{Op: "insert", Table: "kv", Key: 1 + w}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	type record struct {
		key    uint64
		digest string
	}
	var mu sync.Mutex
	var acked []record
	drive := func(w int) error {
		rng := rand.New(rand.NewSource(int64(w)))
		add := &TxnRequest{Ops: []Op{{Op: "add", Table: "kv", Key: uint64(w + 1), Val: 1}}}
		for i := 0; i < n; i++ {
			key := uint64(3 + 2*i + w)
			resp, err := Apply(e, w, key, add, nil)
			if err != nil {
				return err
			}
			if resp.Replayed || resp.Results[0].Val != int64(i+1) {
				return fmt.Errorf("key %d: %+v, want a fresh add answering %d", key, resp, i+1)
			}
			mu.Lock()
			acked = append(acked, record{key, resp.Digest})
			old := acked[rng.Intn(len(acked))]
			mu.Unlock()
			if i%2 != 0 {
				continue
			}
			if resp, err = Apply(e, w, old.key, add, nil); err != nil {
				return err
			}
			if !resp.Replayed || resp.Digest != old.digest {
				return fmt.Errorf("replay of key %d: %+v, want digest %s replayed", old.key, resp, old.digest)
			}
		}
		return nil
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = drive(w)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	restarts := e.ObsSnapshot().Tables[IdemTable].IndexRestarts
	t.Logf("%d idempotency-tree reads restarted over %d requests", restarts, 3*n)
}
