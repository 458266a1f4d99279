package index

import (
	"errors"
	"math/rand"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// testBuckets is the table size NewHash gives a tiny capacity; the hash tests
// choose keys by where they land in it.
const testBuckets = 64

func fpOf(key uint64) byte { return byte(hash64(key) >> 56) }

// bucketKeys returns the first n keys, counting up from 1, whose home in a
// testBuckets-bucket table is bucket b and whose fingerprint is fp — or, with
// fp < 0, whose fingerprints all differ.
func bucketKeys(b uint64, fp, n int) []uint64 {
	var keys []uint64
	var used [256]bool
	for k := uint64(1); len(keys) < n; k++ {
		if hash64(k)&(testBuckets-1) != b || (fp >= 0 && fpOf(k) != byte(fp)) || (fp < 0 && used[fpOf(k)]) {
			continue
		}
		used[fpOf(k)] = true
		keys = append(keys, k)
	}
	return keys
}

// spaceLog records what an index reads and stores through its Space.
type spaceLog struct {
	pmem.Space
	reads, writes [][2]uint64 // offset, length
}

func (s *spaceLog) Read(clk *sim.Clock, off uint64, dst []byte) {
	s.reads = append(s.reads, [2]uint64{off, uint64(len(dst))})
	s.Space.Read(clk, off, dst)
}

func (s *spaceLog) Write(clk *sim.Clock, off uint64, src []byte) {
	s.writes = append(s.writes, [2]uint64{off, uint64(len(src))})
	s.Space.Write(clk, off, src)
}

// TestHashLineBudget pins what an operation on a fresh NVM hash touches: the
// cache-line accesses the memory system counted (hits + misses, loads and
// stores alike) and the reads and stores the index issued. The fingerprints of
// the keys differ, so no probe compares an entry it does not want.
func TestHashLineBudget(t *testing.T) {
	sys := newSys()
	log := &spaceLog{Space: sys.Space}
	h, err := NewHash(log, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.nbuckets != testBuckets {
		t.Fatalf("%d buckets, the key choice assumes %d", h.nbuckets, testBuckets)
	}
	clk := sim.NewClock()
	// cost runs one operation and returns the lines it touched, having checked
	// that it read no byte twice: in particular no bucket's first line.
	cost := func(name string, wantReads, wantWrites int, op func()) uint64 {
		t.Helper()
		log.reads, log.writes = log.reads[:0], log.writes[:0]
		before := sys.Dev.Stats().Snapshot()
		op()
		d := sys.Dev.Stats().Snapshot().Sub(before)
		for i, r := range log.reads {
			for _, q := range log.reads[:i] {
				if r[0] < q[0]+q[1] && q[0] < r[0]+r[1] {
					t.Fatalf("%s read [%d,+%d) and [%d,+%d): the same bytes twice", name, q[0], q[1], r[0], r[1])
				}
			}
		}
		if len(log.reads) != wantReads || len(log.writes) != wantWrites {
			t.Fatalf("%s: %d reads %v and %d stores %v, want %d and %d", name, len(log.reads), log.reads, len(log.writes), log.writes, wantReads, wantWrites)
		}
		return d.CacheHits + d.CacheMisses
	}
	mustInsert := func(k uint64) func() {
		return func() {
			if err := h.Insert(clk, k, k+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustGet := func(k uint64, want bool) func() {
		return func() {
			if v, ok := h.Get(clk, k); ok != want || (ok && v != k+1) {
				t.Fatalf("get(%d) = %d,%v", k, v, ok)
			}
		}
	}

	keys := bucketKeys(9, -1, bucketEntries+2)
	absent := keys[bucketEntries+1]
	for i, k := range keys[:bucketEntries-1] {
		// One read (the header's line), the entry and the header stored: two
		// lines when the entry shares the header's line, as entries 0-2 do.
		if got := cost("insert", 1, 2, mustInsert(k)); got != 3 {
			t.Fatalf("insert into slot %d touched %d lines, want 1 read + 2 stored", i, got)
		}
	}
	for i, k := range keys[:bucketEntries-1] {
		want := uint64(2)
		if i < 3 {
			want = 1
		}
		if got := cost("get", int(want), 0, mustGet(k, true)); got != want {
			t.Fatalf("get of slot %d touched %d lines, want %d", i, got, want)
		}
	}
	if got := cost("get absent", 1, 0, mustGet(absent, false)); got != 1 {
		t.Fatalf("get of an absent key touched %d lines, want 1", got)
	}
	if got := cost("update", 2, 1, func() { h.Update(clk, keys[7], keys[7]+1) }); got != 3 {
		t.Fatalf("update of slot 7 touched %d lines, want 2 read + 1 stored", got)
	}
	// Slot 1 goes, slot 13 — past the first line — moves into it.
	if got := cost("delete", 2, 2, func() { h.Delete(clk, keys[1]) }); got != 4 {
		t.Fatalf("delete with a move touched %d lines, want 2 read + 2 stored", got)
	}
	cost("get moved", 1, 0, mustGet(keys[13], true))
	cost("get deleted", 1, 0, mustGet(keys[1], false))

	// Fill the bucket; the next key passes it (one marker byte) into bucket 10
	// and is found there by a probe that reads one line of each.
	cost("insert", 1, 2, mustInsert(keys[1]))
	cost("insert", 1, 2, mustInsert(keys[bucketEntries-1]))
	if got := cost("insert past a full bucket", 2, 3, mustInsert(keys[bucketEntries])); got != 5 {
		t.Fatalf("insert past a full bucket touched %d lines, want 2 read + 3 stored", got)
	}
	if got := cost("get past a full bucket", 2, 0, mustGet(keys[bucketEntries], true)); got != 2 {
		t.Fatalf("get past a full bucket touched %d lines, want 2", got)
	}
	cost("duplicate", 2, 0, func() {
		if err := h.Insert(clk, keys[bucketEntries], 0); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("duplicate insert: %v", err)
		}
	})

	// Whatever the table holds, an operation reads each bucket of its window
	// at most once: fill until a window is exhausted, then drain.
	headersOnce := func(name string) {
		t.Helper()
		heads := map[uint64]bool{}
		for _, r := range log.reads {
			if r[1] != pmem.LineSize {
				continue
			}
			if heads[r[0]] {
				t.Fatalf("%s read the header line at %d twice", name, r[0])
			}
			heads[r[0]] = true
		}
		if len(heads) > maxProbe {
			t.Fatalf("%s read %d buckets", name, len(heads))
		}
		log.reads = log.reads[:0]
	}
	rng := rand.New(rand.NewSource(5))
	var held []uint64
	for {
		k := uint64(rng.Int63())
		err := h.Insert(clk, k, k+1)
		headersOnce("insert")
		if errors.Is(err, ErrFull) {
			break
		}
		held = append(held, k)
	}
	if len(held) < 500 {
		t.Fatalf("only %d keys before ErrFull", len(held))
	}
	for _, k := range held {
		if !h.Delete(clk, k) {
			t.Fatalf("key %d lost", k)
		}
		headersOnce("delete")
	}
}

type hashOp struct {
	kind     byte // 'i'nsert, 'u'pdate, 'd'elete
	key, val uint64
}

// hashCrashHistory is a seeded history over a 64-bucket table that reaches
// the states the bucket format has: eighteen keys forced into bucket 7 under
// one fingerprint (the bucket fills and three pass into bucket 8), a delete
// whose moved-in last entry lives past the first line, a delete of the last
// slot followed by an insert of a colliding key into the bytes it left, then
// random traffic over those keys, bucket 8's own and some anywhere. It also
// returns keys the history never inserts, four of them colliding with the
// eighteen.
func hashCrashHistory(seed int64) (ops []hashOp, never []uint64) {
	rng := rand.New(rand.NewSource(seed))
	same := bucketKeys(7, 0xa7, 22)
	near := bucketKeys(8, -1, 12)
	pool := append(append([]uint64{}, same[:18]...), near...)
	for i := 0; i < 20; i++ {
		pool = append(pool, 1_000_000+uint64(rng.Intn(1_000_000)))
	}
	never = append(never, same[18:]...)
	never = append(never, 5_000_000, 5_000_001, 0)

	val := func() uint64 { return uint64(rng.Int63()) }
	for _, k := range same[:18] {
		ops = append(ops, hashOp{'i', k, val()})
	}
	for _, k := range near[:10] {
		ops = append(ops, hashOp{'i', k, val()})
	}
	ops = append(ops,
		hashOp{'u', same[4], val()}, hashOp{'u', same[16], val()}, hashOp{'u', near[2], val()},
		hashOp{'d', same[1], 0},          // slot 1 of a full bucket: slot 14 moves in
		hashOp{'d', same[13], 0},         // the last slot: only the header
		hashOp{'i', same[1], val()},      // lands on the bytes same[13] left
		hashOp{'d', same[15], 0},         // from bucket 8
		hashOp{'i', same[13], val()},     // bucket 7 again full
		hashOp{'i', same[15], val()},     // passes it
		hashOp{'d', same[0], 0},          // an entry of the first line
		hashOp{'u', same[14], val()},     // wherever the moves left it
		hashOp{'i', same[14], val() | 1}, // duplicate
	)
	for i := 0; i < 260; i++ {
		k := pool[rng.Intn(len(pool))]
		ops = append(ops, hashOp{"iiiudd"[rng.Intn(6)], k, val()})
	}
	return ops, never
}

// applyHashOp applies op to the index and to the model, comparing results.
func applyHashOp(t *testing.T, h *HashIndex, clk *sim.Clock, ref map[uint64]uint64, op hashOp) {
	t.Helper()
	_, exists := ref[op.key]
	switch op.kind {
	case 'i':
		if err := h.Insert(clk, op.key, op.val); exists != errors.Is(err, ErrDuplicate) || (!exists && err != nil) {
			t.Fatalf("insert(%d): %v, model has it: %v", op.key, err, exists)
		}
		if !exists {
			ref[op.key] = op.val
		}
	case 'u':
		if got := h.Update(clk, op.key, op.val); got != exists {
			t.Fatalf("update(%d) = %v, model %v", op.key, got, exists)
		}
		if exists {
			ref[op.key] = op.val
		}
	default:
		if got := h.Delete(clk, op.key); got != exists {
			t.Fatalf("delete(%d) = %v, model %v", op.key, got, exists)
		}
		delete(ref, op.key)
	}
}

// runHashUntilCrash formats a hash on a fresh system, arms the plan and
// applies ops until the injected crash fires. It returns the system, the
// model as of the last completed op and the index of the op in flight
// (len(ops) if the plan never fired).
func runHashUntilCrash(t *testing.T, cfg pmem.Config, ops []hashOp, plan *pmem.FaultPlan) (sys *pmem.System, ref map[uint64]uint64, inFlight int) {
	cfg.DeviceBytes = 1 << 20
	sys = pmem.NewSystem(cfg)
	h, err := NewHash(sys.Space, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFaults(plan)
	clk := sim.NewClock()
	ref = map[uint64]uint64{}
	defer func() {
		if r := recover(); r != nil && !pmem.IsInjectedCrash(r) {
			panic(r)
		}
	}()
	for inFlight = 0; inFlight < len(ops); inFlight++ {
		applyHashOp(t, h, clk, ref, ops[inFlight])
	}
	return sys, ref, inFlight
}

// TestHashCrashAtEveryStore crashes a persistent-cache system after each
// store of hashCrashHistory, reopens the index and demands: every key but the
// one in flight reads back exactly as the model has it — an acknowledged key
// its last value, a deleted or never-inserted key nothing, so no live key
// hides behind a stale fingerprint and no dead entry shows through a live
// one; the key in flight is as before its operation or as after it; and the
// rest of the history runs on the reopened index and still matches the model,
// which it would not if a delete's half-done move left a copy behind.
func TestHashCrashAtEveryStore(t *testing.T) {
	seeds, stride := 3, uint64(1)
	if testing.Short() {
		seeds, stride = 1, 5
	}
	var trials, halfDeleted int
	for seed := 1; seed <= seeds; seed++ {
		ops, never := hashCrashHistory(int64(seed))
		count := &pmem.FaultPlan{Event: pmem.FaultStore}
		_, final, _ := runHashUntilCrash(t, pmem.Config{}, ops, count)
		stores := count.Counts()[pmem.FaultStore]
		if len(final) < 15 {
			t.Fatalf("seed %d: the history ends with %d keys", seed, len(final))
		}
		universe := append([]uint64{}, never...)
		seen := map[uint64]bool{}
		for _, op := range ops {
			if !seen[op.key] {
				seen[op.key] = true
				universe = append(universe, op.key)
			}
		}
		for n := uint64(1); n <= stores; n += stride {
			sys, ref, at := runHashUntilCrash(t, pmem.Config{}, ops, &pmem.FaultPlan{Event: pmem.FaultStore, N: n})
			if at == len(ops) {
				t.Fatalf("seed %d: no crash at store %d of %d", seed, n, stores)
			}
			trials++
			clk := sim.NewClock()
			h, err := OpenHash(sys.Crash().Space, clk, 0)
			if err != nil {
				t.Fatal(err)
			}
			op := ops[at]
			before, was := ref[op.key]
			for _, k := range universe {
				got, ok := h.Get(clk, k)
				want, exists := ref[k]
				if k != op.key {
					if ok != exists || (ok && got != want) {
						t.Fatalf("seed %d store %d (op %d %c %d): get(%d) = %d,%v, model %d,%v", seed, n, at, op.kind, op.key, k, got, ok, want, exists)
					}
					continue
				}
				// The op in flight happened or did not.
				after, is := before, was
				switch {
				case op.kind == 'i' && !was, op.kind == 'u' && was:
					after, is = op.val, true
				case op.kind == 'd':
					after, is = 0, false
				}
				switch {
				case ok == was && (!ok || got == before):
				case ok == is && (!ok || got == after):
					if ok {
						ref[k] = got
					} else {
						delete(ref, k)
					}
					if op.kind == 'd' {
						halfDeleted++
					}
				default:
					t.Fatalf("seed %d store %d: %c(%d) in flight, get = %d,%v; before %d,%v after %d,%v", seed, n, op.kind, k, got, ok, before, was, after, is)
				}
			}
			for _, op := range ops[at+1:] {
				applyHashOp(t, h, clk, ref, op)
			}
			for _, k := range universe {
				got, ok := h.Get(clk, k)
				if want, exists := ref[k]; ok != exists || (ok && got != want) {
					t.Fatalf("seed %d store %d, history finished: get(%d) = %d,%v, model %d,%v", seed, n, k, got, ok, want, exists)
				}
			}
		}
	}
	// A store that has been issued has happened: the crash fires before the
	// next one. So an insert in flight is never visible (its last store is the
	// header), and a delete in flight is once its entry has moved.
	t.Logf("%d crash points, %d between the two stores of a delete", trials, halfDeleted)
	if halfDeleted == 0 {
		t.Fatal("no crash point fell between the two stores of a delete")
	}
}

// TestHashADRCrashStaysInsideTheHistory: without a persistent cache the
// index's stores reach the media line by line in no order (and one buffered
// block is torn), so a reopened bucket can pair a header with older entries.
// What still holds, because an entry never spans lines and a probe believes a
// fingerprint only together with the key behind it: a lookup ends, finds no
// key the history never inserted, and returns for a key only a value the
// history once gave it; and the index keeps taking operations.
func TestHashADRCrashStaysInsideTheHistory(t *testing.T) {
	ops, never := hashCrashHistory(4)
	gave := map[uint64]map[uint64]bool{}
	for _, op := range ops {
		if op.kind != 'd' {
			if gave[op.key] == nil {
				gave[op.key] = map[uint64]bool{}
			}
			gave[op.key][op.val] = true
		}
	}
	stride := uint64(3)
	if testing.Short() {
		stride = 17
	}
	cfg := pmem.Config{Mode: pmem.ADR, CacheBytes: 1 << 10, CacheWays: 2, XPBufferBytes: 1 << 10, XPBanks: 1}
	count := &pmem.FaultPlan{Event: pmem.FaultStore}
	runHashUntilCrash(t, cfg, ops, count)
	found := 0
	for n := uint64(1); n <= count.Counts()[pmem.FaultStore]; n += stride {
		sys, _, at := runHashUntilCrash(t, cfg, ops, &pmem.FaultPlan{Event: pmem.FaultStore, N: n, Torn: true, Seed: n})
		clk := sim.NewClock()
		h, err := OpenHash(sys.Crash().Space, clk, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range never {
			if v, ok := h.Get(clk, k); ok {
				t.Fatalf("store %d: get(%d) = %d for a key never inserted", n, k, v)
			}
		}
		for k, vals := range gave {
			if v, ok := h.Get(clk, k); ok {
				found++
				if !vals[v] {
					t.Fatalf("store %d: get(%d) = %d, a value the history never gave it", n, k, v)
				}
			}
		}
		for _, op := range ops[min(at+1, len(ops)):] {
			switch op.kind {
			case 'i':
				if err := h.Insert(clk, op.key, op.val); err != nil && !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrFull) {
					t.Fatalf("store %d: insert(%d): %v", n, op.key, err)
				}
			case 'u':
				h.Update(clk, op.key, op.val)
			default:
				h.Delete(clk, op.key)
			}
		}
	}
	if found == 0 {
		t.Fatal("no crash image held a key: nothing reached the media")
	}
}

// TestHashCopyLeftByHalfDoneDelete follows the one state a crash leaves that
// is not a state of the model: between a delete's two stores the entry it
// moved is in the bucket twice, the copy still under the deleted key's
// fingerprint. When the two fingerprints are equal both copies answer to the
// moved key, so an update must reach both — or the next delete moves the old
// one in front of the new — and a delete must remove both. (When they differ
// the copy answers to nothing and costs a slot.)
func TestHashCopyLeftByHalfDoneDelete(t *testing.T) {
	keys := bucketKeys(9, 0x5c, 6)
	ops := []hashOp{}
	for _, k := range keys {
		ops = append(ops, hashOp{'i', k, 1})
	}
	ops = append(ops, hashOp{'d', keys[2], 0})
	// Twelve stores insert the six keys; the fourteenth is the header of the
	// delete, whose entry store has put keys[5] into slot 2 as well.
	sys, _, at := runHashUntilCrash(t, pmem.Config{}, ops, &pmem.FaultPlan{Event: pmem.FaultStore, N: 14})
	if at != 6 {
		t.Fatalf("crashed in op %d, want the delete", at)
	}
	clk := sim.NewClock()
	h, err := OpenHash(sys.Crash().Space, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Get(clk, keys[2]); ok {
		t.Fatal("the deleted key is still there")
	}
	if !h.Update(clk, keys[5], 2) || !h.Delete(clk, keys[0]) { // the delete moves slot 5 into slot 0
		t.Fatal("update or delete missed its key")
	}
	if v, ok := h.Get(clk, keys[5]); !ok || v != 2 {
		t.Fatalf("get = %d,%v after an update to 2: the copy kept the old value", v, ok)
	}
	if !h.Delete(clk, keys[5]) {
		t.Fatal("delete missed the key")
	}
	if v, ok := h.Get(clk, keys[5]); ok {
		t.Fatalf("get = %d after the delete: a copy survived it", v)
	}
	for _, k := range []uint64{keys[1], keys[3], keys[4]} {
		if v, ok := h.Get(clk, k); !ok || v != 1 {
			t.Fatalf("bystander %d: %d,%v", k, v, ok)
		}
	}
}
