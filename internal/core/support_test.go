package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"falcon/internal/layout"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// testHotSet lays a set of the given capacity over a DRAM space of its own.
func testHotSet(capacity int) *hotSet {
	return newHotSet(pmem.NewDRAM(hotSetBytes(capacity)), 0, capacity)
}

func TestHotSetLRUEviction(t *testing.T) {
	h := testHotSet(hotWays) // one set
	clk := sim.NewClock()
	for s := uint64(1); s <= hotWays; s++ {
		if h.probe(clk, 0, s) {
			t.Fatalf("first probe of %d reported hot", s)
		}
	}
	if !h.probe(clk, 0, 1) {
		t.Fatal("entry 1 missing")
	}
	// A 9th tuple evicts the set's LRU (2): 1 was refreshed by its probe.
	h.probe(clk, 0, 9)
	want := []hotModelKey{{0, 9}, {0, 1}, {0, 8}, {0, 7}, {0, 6}, {0, 5}, {0, 4}, {0, 3}}
	if got := hotOrder(t, h); len(got) != 1 || !slices.Equal(got[0], want) {
		t.Fatalf("LRU order after eviction = %v, want %v", got, want)
	}
}

func TestHotSetDistinguishesTables(t *testing.T) {
	h := testHotSet(8)
	clk := sim.NewClock()
	h.probe(clk, 1, 7)
	if h.probe(clk, 2, 7) {
		t.Fatal("slot 7 of table 2 confused with table 1")
	}
}

func TestHotSetChargesVirtualTime(t *testing.T) {
	h := testHotSet(4)
	clk := sim.NewClock()
	h.probe(clk, 0, 1)
	h.probe(clk, 0, 1)
	if clk.Nanos() == 0 {
		t.Fatal("hot-set operations must charge DRAM costs")
	}
}

// TestHotSetSizing: the capacity rounds up to whole hotWays-way sets, one
// line each. An engine whose Config names no capacity derives one from half
// its worker's share of the cache (CacheBytes over the workers) over the
// widest heap slot stride, on the figures' cache (2 MiB + 256 KiB per worker:
// 2.5 MiB at 2 workers and 6 MiB at 16): the YCSB usertable (1 008 B tuples,
// 1 024 B slots), TPC-C (widest the customer, 445 B in 512 B slots) and the
// serving tables (16 and 24 B in 64 B slots). A recovered engine derives the
// same capacity from its catalog and gives its sets the same DRAM. An
// explicit capacity wins; an engine without a hot set reports none.
func TestHotSetSizing(t *testing.T) {
	for _, c := range []struct {
		capacity int
		bytes    uint64
	}{{0, 64}, {1, 64}, {8, 64}, {9, 128}, {17, 192}, {256, 2048}, {257, 2112}} {
		if got := hotSetBytes(c.capacity); got != c.bytes {
			t.Errorf("capacity %d: %d B, want %d", c.capacity, got, c.bytes)
		}
	}

	table := func(name string, tupleBytes int) TableSpec {
		return TableSpec{Name: name, Capacity: 1000, Schema: layout.NewSchema(
			layout.Column{Name: "k", Kind: layout.Uint64},
			layout.Column{Name: "pad", Kind: layout.Bytes, Size: tupleBytes - 8})}
	}
	geometries := []struct {
		name   string
		specs  []TableSpec
		want2  int // at 2 workers
		want16 int // at 16
	}{
		{"ycsb", []TableSpec{table("usertable", 1008)}, 640, 192},
		{"tpcc", []TableSpec{table("item", 98), table("customer", 445), table("stock", 330)}, 1280, 384},
		{"serve", []TableSpec{table("kv", 16), table("__idem", 24)}, 10240, 3072},
	}
	build := func(t *testing.T, cfg Config, threads int, specs []TableSpec) *Engine {
		t.Helper()
		cfg.Threads = threads
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20, CacheBytes: 2<<20 + threads*(256<<10)})
		e, err := New(sys, cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, g := range geometries {
		for _, c := range []struct{ threads, want int }{{2, g.want2}, {16, g.want16}} {
			e := build(t, FalconConfig(), c.threads, g.specs)
			if got := e.Config().HotTupleCap; got != c.want {
				t.Errorf("%s at %d workers: derived capacity %d, want %d", g.name, c.threads, got, c.want)
			}
			if got, want := e.dramNext, uint64(c.threads)*hotSetBytes(c.want); got != want {
				t.Errorf("%s at %d workers: hot sets take %d B of DRAM, want %d", g.name, c.threads, got, want)
			}
			// Recovery sizes the sets from the catalog's tables, as New did
			// from the specs (initWorkers): the same capacity, the same DRAM.
			cfg := FalconConfig()
			cfg.Threads = c.threads
			r, _, err := Recover(e.System().Crash(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Config().HotTupleCap; got != c.want {
				t.Errorf("%s at %d workers, recovered: derived capacity %d, want %d", g.name, c.threads, got, c.want)
			}
			if r.dramNext != e.dramNext {
				t.Errorf("%s at %d workers, recovered: hot sets take %d B of DRAM, the engine it replaces %d", g.name, c.threads, r.dramNext, e.dramNext)
			}
		}
	}

	explicit := FalconConfig()
	explicit.HotTupleCap = 100
	if got := build(t, explicit, 2, geometries[0].specs).Config().HotTupleCap; got != 100 {
		t.Errorf("explicit capacity 100 became %d", got)
	}
	if got := build(t, InpConfig(), 2, geometries[0].specs).Config().HotTupleCap; got != 0 {
		t.Errorf("Inp, which has no hot set, reports capacity %d", got)
	}
}

// TestHotSetLineIsExact: line maps a key with the high word of its hash
// times the set count, which for a power-of-two count is the top-bits shift a
// power-of-two set used (pmem's TestSetForIsExact is the cache's twin), so
// such sets place every key where they did; any other count keeps every key
// inside the region.
func TestHotSetLineIsExact(t *testing.T) {
	const phi = 0x9e3779b97f4a7c15
	rng := rand.New(rand.NewSource(1))
	for k := 0; k <= 20; k++ {
		h := &hotSet{base: 4096, sets: 1 << k}
		for i := 0; i < 1000; i++ {
			key := rng.Uint64() | 1
			if got, want := h.line(key), h.base+(key*phi>>(64-k))*pmem.LineSize; got != want {
				t.Fatalf("%d sets: key %#x at %d, the shift puts it at %d", h.sets, key, got, want)
			}
		}
	}
	for i := 0; i < 20; i++ {
		h := &hotSet{base: 4096, sets: 1 + rng.Uint64()%(1<<20)}
		for j := 0; j < 1000; j++ {
			if off := h.line(rng.Uint64() | 1); off >= h.base+h.sets*pmem.LineSize {
				t.Fatalf("%d sets: a key at %d, past the region's end", h.sets, off)
			}
		}
	}
}

// TestHotProbeCost: a probe costs the lines it touches. The first probe of a
// cold set misses the DRAM space's cache and pays DRAM; once the set is
// resident a probe that finds its tuple the most recent of its set reads one
// line, one CacheHitLine, and any other probe reads the line and writes it
// back, exactly two.
func TestHotProbeCost(t *testing.T) {
	h := testHotSet(256)
	clk := sim.NewClock()
	if h.probe(clk, 0, 1); clk.Nanos() < sim.DRAMFirstLine {
		t.Fatalf("cold probe cost %d ns, want at least DRAMFirstLine (%d)", clk.Nanos(), sim.DRAMFirstLine)
	}
	// Make the whole region resident: touch every line of it.
	for off := uint64(0); off < hotSetBytes(256); off += pmem.LineSize {
		h.space.ReadU64(clk, off)
	}
	rng := rand.New(rand.NewSource(1))
	check := func(n int, slot uint64, wantLines uint64) {
		t.Helper()
		before, lines := clk.Nanos(), h.stats.Lines
		h.probe(clk, 0, slot)
		if got, gotLines := clk.Nanos()-before, h.stats.Lines-lines; gotLines != wantLines || got != wantLines*sim.CacheHitLine {
			t.Fatalf("probe %d of slot %d cost %d ns for %d line accesses, want %d for %d", n, slot, got, gotLines, wantLines*sim.CacheHitLine, wantLines)
		}
	}
	for n := 0; n < 2000; n++ {
		slot := uint64(rng.Intn(400))
		w := h.space.ReadU64(nil, h.line(hotKey(0, slot)))
		if w == hotKey(0, slot) {
			check(n, slot, 1)
		} else {
			check(n, slot, 2)
		}
		check(n, slot, 1) // now the set's most recent
	}
}

// hotOrder lists each set's tuples from most to least recently used, reading
// the region directly (no clock, no line count), and checks on the way that
// a set's empty ways all come after its tuples, that no tuple is in a set
// twice and that each sits in the set its key hashes to.
func hotOrder(t testing.TB, h *hotSet) [][]hotModelKey {
	t.Helper()
	sets := make([][]hotModelKey, h.sets)
	for i := range sets {
		off := h.base + uint64(i)*pmem.LineSize
		for j := uint64(0); j < hotWays; j++ {
			k := h.space.ReadU64(nil, off+8*j)
			if k == 0 {
				continue
			}
			key := hotModelKey{uint8(k >> 1), k >> 9}
			if uint64(len(sets[i])) != j || slices.Contains(sets[i], key) || h.line(k) != off {
				t.Fatalf("set %d way %d: key %v after %v (empty ways, a repeat or another set's key)", i, j, key, sets[i])
			}
			sets[i] = append(sets[i], key)
		}
	}
	return sets
}

// hotModel is the hot set as it was before it moved into the DRAM space — a
// Go map beside an intrusive doubly-linked list over a node array, one exact
// LRU list — driven through the two calls persist made before probe:
// contains, then add on a miss. One per set, hotWays big, it is the reference
// the set-associative set must match; one of the set's whole capacity, it is
// the exact LRU whose hit rate the set must stay near.
type hotModel struct {
	cap   int
	m     map[hotModelKey]int // key -> node index
	nodes []hotModelNode
	head  int // most recently used (-1 = empty)
	tail  int // least recently used (-1 = empty)
	free  int // free-list head through next links (-1 = full)
	stats obs.HotSetStats
}

type hotModelNode struct {
	key        hotModelKey
	prev, next int
}

type hotModelKey struct {
	table uint8
	slot  uint64
}

func newHotModel(capacity int) *hotModel {
	h := &hotModel{
		cap:   capacity,
		m:     make(map[hotModelKey]int, capacity+1),
		nodes: make([]hotModelNode, capacity),
		head:  -1,
		tail:  -1,
	}
	for i := range h.nodes {
		h.nodes[i].next = i + 1
	}
	h.nodes[capacity-1].next = -1
	return h
}

// touchFront moves node i to the MRU end of the list.
func (h *hotModel) touchFront(i int) {
	if h.head == i {
		return
	}
	n := &h.nodes[i]
	if n.prev != -1 {
		h.nodes[n.prev].next = n.next
	}
	if n.next != -1 {
		h.nodes[n.next].prev = n.prev
	} else if h.tail == i {
		h.tail = n.prev
	}
	n.prev = -1
	n.next = h.head
	if h.head != -1 {
		h.nodes[h.head].prev = i
	}
	h.head = i
	if h.tail == -1 {
		h.tail = i
	}
}

func (h *hotModel) contains(table uint8, slot uint64) bool {
	k := hotModelKey{table, slot}
	if i, ok := h.m[k]; ok {
		h.touchFront(i)
		h.stats.Hits++
		return true
	}
	h.stats.Misses++
	return false
}

func (h *hotModel) add(table uint8, slot uint64) {
	k := hotModelKey{table, slot}
	if i, ok := h.m[k]; ok {
		h.touchFront(i)
		return
	}
	i := h.free
	if i != -1 {
		h.free = h.nodes[i].next
	} else {
		i = h.tail
		n := &h.nodes[i]
		delete(h.m, n.key)
		h.tail = n.prev
		if h.tail != -1 {
			h.nodes[h.tail].next = -1
		} else {
			h.head = -1
		}
		h.stats.Evictions++
	}
	n := &h.nodes[i]
	n.key = k
	n.prev = -1
	n.next = h.head
	if h.head != -1 {
		h.nodes[h.head].prev = i
	}
	h.head = i
	if h.tail == -1 {
		h.tail = i
	}
	h.m[k] = i
}

// probe is contains, then add on a miss.
func (h *hotModel) probe(table uint8, slot uint64) bool {
	if h.contains(table, slot) {
		return true
	}
	h.add(table, slot)
	return false
}

// order lists the model's keys from most to least recently used.
func (h *hotModel) order() []hotModelKey {
	var keys []hotModelKey
	for i := h.head; i != -1; i = h.nodes[i].next {
		keys = append(keys, h.nodes[i].key)
	}
	return keys
}

// setModel is the reference for a set-associative set: one exact LRU model
// of hotWays entries per set, each key routed to the set it hashes to.
type setModel struct {
	h    *hotSet
	sets []*hotModel
}

func newSetModel(h *hotSet) *setModel {
	m := &setModel{h: h, sets: make([]*hotModel, h.sets)}
	for i := range m.sets {
		m.sets[i] = newHotModel(hotWays)
	}
	return m
}

func (m *setModel) of(table uint8, slot uint64) *hotModel {
	return m.sets[(m.h.line(hotKey(table, slot))-m.h.base)/pmem.LineSize]
}

func (m *setModel) stats() (s obs.HotSetStats) {
	for _, r := range m.sets {
		s.Add(r.stats)
	}
	return s
}

func (m *setModel) order() [][]hotModelKey {
	sets := make([][]hotModelKey, len(m.sets))
	for i, r := range m.sets {
		sets[i] = r.order()
	}
	return sets
}

// probeBoth runs one probe on the set and on the model of the probed key's
// set and fails on a different answer or a different eviction victim.
func probeBoth(t testing.TB, h *hotSet, m *setModel, clk *sim.Clock, table uint8, slot uint64) {
	t.Helper()
	ref := m.of(table, slot)
	k := h.space.ReadU64(nil, h.line(hotKey(table, slot))+8*(hotWays-1))
	victim := hotModelKey{uint8(k >> 1), k >> 9}
	refVictim := ref.nodes[max(ref.tail, 0)].key
	ev, refEv := h.stats.Evictions, ref.stats.Evictions

	if hot, refHot := h.probe(clk, table, slot), ref.probe(table, slot); hot != refHot {
		t.Fatalf("(%d,%d): probe hot=%v, model %v", table, slot, hot, refHot)
	}
	evicted, refEvicted := h.stats.Evictions != ev, ref.stats.Evictions != refEv
	if evicted != refEvicted || evicted && victim != refVictim {
		t.Fatalf("(%d,%d): eviction %v of %v, model %v of %v", table, slot, evicted, victim, refEvicted, refVictim)
	}
}

// TestHotSetProbeMatchesContainsAdd drives one seeded key stream through the
// DRAM set's probe and through the per-set model's contains-then-add pairs:
// the same hits and misses, the same eviction victims, the same final
// recency order in every set.
func TestHotSetProbeMatchesContainsAdd(t *testing.T) {
	for _, capacity := range []int{1, 24, 256} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		h := testHotSet(capacity)
		m := newSetModel(h)
		clk := sim.NewClock()
		for n := 0; n < 100_000; n++ {
			span := 4*capacity + 8 // half the stream revisits a hot few
			if rng.Intn(2) == 0 {
				span = capacity + 1
			}
			probeBoth(t, h, m, clk, uint8(rng.Intn(3)), uint64(rng.Intn(span)))
		}
		if got, want := hotOrder(t, h), m.order(); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("cap %d: final LRU order differs:\n probe %v\n model %v", capacity, got, want)
		}
		got := h.stats
		got.Lines = 0
		if got != m.stats() {
			t.Fatalf("cap %d: stats %+v, model %+v", capacity, got, m.stats())
		}
		if h.stats.Hits == 0 || h.stats.Evictions == 0 {
			t.Fatalf("cap %d: stream exercised no hits or no evictions: %+v", capacity, h.stats)
		}
	}
}

// FuzzHotSetModel drives the DRAM set and the per-set model with the same
// probes: the first byte picks a capacity of 1 to 32 (one to four sets), each
// further pair of bytes a table (of three) and a slot (of 48, so keys collide
// in a set and revisit it). Every answer, every eviction victim and, after
// every probe, every set's whole recency order must match.
func FuzzHotSetModel(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 0, 1, 0, 3, 1, 1})
	f.Add([]byte{0, 0, 5, 1, 5, 2, 5, 0, 5})
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 1, 0, 10, 0, 2})
	f.Add([]byte{20, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12,
		1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 2, 40, 2, 41, 2, 42, 2, 43, 2, 44,
		0, 1, 0, 13, 0, 14, 0, 15, 0, 16, 0, 17, 0, 18, 0, 19, 0, 20, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		h := testHotSet(1 + int(b[0]%32))
		m := newSetModel(h)
		clk := sim.NewClock()
		for p := b[1:]; len(p) >= 2; p = p[2:] {
			probeBoth(t, h, m, clk, p[0]%3, uint64(p[1]%48))
			if got, want := hotOrder(t, h), m.order(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("LRU order differs:\n probe %v\n model %v", got, want)
			}
		}
	})
}

// TestHotSetHitRateNearExactLRU: the set-associative set keeps recency only
// within a set, so it may drop a tuple one global LRU list of the same
// capacity would keep, or keep one it would drop. At every capacity the
// figure and benchmark engines derive (192 to 1 280 for YCSB and TPC-C at 2
// and 16 workers, 3 072 and 10 240 for the serving tables), set counts that
// are not powers of two, its hit rate stays within two
// points of exact LRU's, on a seeded scrambled Zipfian stream and on a TPC-C-like one (hot
// warehouse and district rows, customer and stock rows drawn non-uniformly,
// and inserted rows, each written once, that only ever miss).
func TestHotSetHitRateNearExactLRU(t *testing.T) {
	streams := []struct {
		name string
		run  func(rng *rand.Rand, emit func(table uint8, slot uint64))
	}{
		{"zipfian", func(rng *rand.Rand, emit func(uint8, uint64)) {
			zipf := rand.NewZipf(rng, 1.01, 1, 99_999)
			for n := 0; n < 200_000; n++ {
				emit(0, zipf.Uint64()*7919%100_000)
			}
		}},
		{"tpcc", func(rng *rand.Rand, emit func(uint8, uint64)) {
			next := uint64(0) // the slot of the next inserted row
			nurand := func(a, n int) uint64 { return uint64((rng.Intn(a+1) | rng.Intn(n)) % n) }
			for n := 0; n < 20_000; n++ {
				w := uint64(rng.Intn(2))
				d := w*10 + uint64(rng.Intn(10))
				if rng.Intn(2) == 0 { // NewOrder
					emit(1, d)
					for i := 5 + rng.Intn(11); i > 0; i-- {
						emit(3, w*2000+nurand(511, 2000))
						emit(6, next)
						next++
					}
					emit(4, next)
					emit(5, next)
					next++
				} else { // Payment
					emit(0, w)
					emit(1, d)
					emit(2, d*120+nurand(127, 120))
					emit(7, next)
					next++
				}
			}
		}},
	}
	for _, capacity := range []int{192, 384, 640, 1280, 3072, 10240} {
		for _, s := range streams {
			h, ref := testHotSet(capacity), newHotModel(capacity)
			clk := sim.NewClock()
			s.run(rand.New(rand.NewSource(1)), func(table uint8, slot uint64) {
				h.probe(clk, table, slot)
				ref.probe(table, slot)
			})
			rate := func(s obs.HotSetStats) float64 { return float64(s.Hits) / float64(s.Hits+s.Misses) }
			got, want := rate(h.stats), rate(ref.stats)
			t.Logf("%s at %d: set-associative hit rate %.4f, exact LRU %.4f", s.name, capacity, got, want)
			if want == 0 || got < want-0.02 || got > want+0.02 {
				t.Errorf("%s at %d: hit rate %.4f, exact LRU %.4f: more than two points apart", s.name, capacity, got, want)
			}
		}
	}
}

func TestReservationsExclusive(t *testing.T) {
	r := newReservations()
	clk := sim.NewClock()
	if !r.tryReserve(clk, 1, 100) {
		t.Fatal("first reserve failed")
	}
	if r.tryReserve(clk, 1, 100) {
		t.Fatal("double reserve succeeded")
	}
	if !r.tryReserve(clk, 2, 100) {
		t.Fatal("same key on another table blocked")
	}
	r.release(clk, 1, 100)
	if !r.tryReserve(clk, 1, 100) {
		t.Fatal("reserve after release failed")
	}
}

func TestReservationsConcurrent(t *testing.T) {
	r := newReservations()
	const workers = 8
	winners := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := sim.NewClock()
			for k := uint64(0); k < 1000; k++ {
				if r.tryReserve(clk, 0, k) {
					winners[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range winners {
		total += n
	}
	if total != 1000 {
		t.Fatalf("each key must have exactly one winner; got %d total", total)
	}
}

func TestTupleCachePutGetInvalidate(t *testing.T) {
	tc := newTupleCache(1<<20, 128)
	clk := sim.NewClock()
	payload := bytes.Repeat([]byte{0xAB}, 128)
	buf := make([]byte, 128)

	if tc.get(clk, 1, 42, 7, buf) {
		t.Fatal("hit on empty cache")
	}
	tc.put(clk, 1, 42, 7, payload)
	if !tc.get(clk, 1, 42, 7, buf) || !bytes.Equal(buf, payload) {
		t.Fatal("miss or corruption after put")
	}
	// Refresh with a new version in another slot: the entry is its image now,
	// and a reader that resolved the old slot misses.
	payload2 := bytes.Repeat([]byte{0xCD}, 128)
	tc.put(clk, 1, 42, 8, payload2)
	if !tc.get(clk, 1, 42, 8, buf) || !bytes.Equal(buf, payload2) {
		t.Fatal("refresh did not replace content")
	}
	if tc.get(clk, 1, 42, 7, buf) {
		t.Fatal("hit for the superseded slot")
	}
	// A late fill from the superseded slot: the reader of the new slot misses
	// instead of taking the old image.
	tc.put(clk, 1, 42, 7, payload)
	if tc.get(clk, 1, 42, 8, buf) {
		t.Fatal("hit for the new slot after a fill from the old one")
	}
	tc.invalidate(clk, 1, 42)
	if tc.get(clk, 1, 42, 7, buf) {
		t.Fatal("hit after invalidate")
	}
}

func TestTupleCacheEvictsUnderPressure(t *testing.T) {
	// Tiny cache: 64 shards × 4 entries × 64 B.
	tc := newTupleCache(16<<10, 64)
	clk := sim.NewClock()
	payload := make([]byte, 64)
	for k := uint64(0); k < 10_000; k++ {
		tc.put(clk, 0, k, k, payload)
	}
	buf := make([]byte, 64)
	hits := 0
	for k := uint64(0); k < 10_000; k++ {
		if tc.get(clk, 0, k, k, buf) {
			hits++
		}
	}
	if hits == 0 || hits > 2000 {
		t.Fatalf("hits = %d; CLOCK eviction not bounding the cache", hits)
	}
}

func TestTupleCacheRejectsOversizedPayload(t *testing.T) {
	tc := newTupleCache(1<<20, 64)
	clk := sim.NewClock()
	tc.put(clk, 0, 1, 1, make([]byte, 65)) // silently ignored
	if tc.get(clk, 0, 1, 1, make([]byte, 64)) {
		t.Fatal("oversized payload was cached")
	}
}
