package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// testHotSet lays a set of the given capacity over a DRAM space of its own.
func testHotSet(capacity int) *hotSet {
	return newHotSet(pmem.NewDRAM(hotSetBytes(capacity), sim.DefaultCostModel()), 0, capacity)
}

func TestHotSetLRUEviction(t *testing.T) {
	h := testHotSet(3)
	clk := sim.NewClock()
	for s := uint64(1); s <= 3; s++ {
		if h.probe(clk, 0, s) {
			t.Fatalf("first probe of %d reported hot", s)
		}
	}
	if !h.probe(clk, 0, 1) {
		t.Fatal("entry 1 missing")
	}
	// A 4th tuple evicts the LRU (2): 1 was refreshed by its probe.
	h.probe(clk, 0, 4)
	if got := hotOrder(t, h); !slices.Equal(got, []hotModelKey{{0, 4}, {0, 1}, {0, 3}}) {
		t.Fatalf("LRU order after eviction = %v, want 4 1 3", got)
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

// TestHotProbeCost: a probe costs the lines it touches. The first probe of a
// cold set misses the DRAM space's cache and pays DRAM; once the set is
// resident every line access is a cache hit, so a probe costs its line
// accesses times CacheHitLine, and a repeated probe (its tuple already the
// most recent) at most six of them.
func TestHotProbeCost(t *testing.T) {
	cost := sim.DefaultCostModel()
	h := testHotSet(256)
	clk := sim.NewClock()
	if h.probe(clk, 0, 1); clk.Nanos() < cost.DRAMFirstLine {
		t.Fatalf("cold probe cost %d ns, want at least DRAMFirstLine (%d)", clk.Nanos(), cost.DRAMFirstLine)
	}
	// Make the whole region resident: touch every line of it.
	for off := uint64(0); off < hotSetBytes(256); off += pmem.LineSize {
		h.space.ReadU64(clk, off)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		slot := uint64(rng.Intn(400))
		before, lines := clk.Nanos(), h.stats.Lines
		h.probe(clk, 0, slot)
		if got, want := clk.Nanos()-before, (h.stats.Lines-lines)*cost.CacheHitLine; got != want {
			t.Fatalf("probe %d of a resident set cost %d ns for %d line accesses, want %d", n, got, h.stats.Lines-lines, want)
		}
		before = clk.Nanos()
		if !h.probe(clk, 0, slot) {
			t.Fatalf("probe %d: slot %d not hot right after its probe", n, slot)
		}
		if got := clk.Nanos() - before; got > 6*cost.CacheHitLine {
			t.Fatalf("repeated probe %d cost %d ns, want at most 6 x CacheHitLine (%d)", n, got, 6*cost.CacheHitLine)
		}
	}
}

// hotOrder lists the set's tuples from most to least recently used, reading
// its region directly (no clock, no line count), and checks on the way that
// every entry but the head links back to the one before it, that headNext is
// the head's next link, that the walk from the head reaches the tail and that
// it counts n entries.
func hotOrder(t testing.TB, h *hotSet) []hotModelKey {
	t.Helper()
	word := func(i uint32, w uint64) uint64 { return h.space.ReadU64(nil, h.off(i)+w) }
	var keys []hotModelKey
	if h.head == hotNone {
		if h.tail != hotNone || h.n != 0 {
			t.Fatalf("no head, but tail %d and count %d", h.tail, h.n)
		}
		return nil
	}
	if h.n > 1 && uint32(word(h.head, 8)) != h.headNext {
		t.Fatalf("headNext %d, the head's link word says %d", h.headNext, uint32(word(h.head, 8)))
	}
	for i, prev := h.head, hotNone; ; i = uint32(word(i, 8)) {
		if p := uint32(word(i, 8) >> 32); prev != hotNone && p != prev {
			t.Fatalf("entry %d links back to %d, want %d", i, p, prev)
		}
		k := word(i, 0)
		keys = append(keys, hotModelKey{uint8(k >> 1), k >> 9})
		if i == h.tail || len(keys) > h.n {
			break
		}
		prev = i
	}
	if len(keys) != h.n {
		t.Fatalf("the walk from the head reached %d entries before the tail, count %d", len(keys), h.n)
	}
	return keys
}

// hotModel is the hot set as it was before it moved into the DRAM space — a
// Go map beside an intrusive doubly-linked list over a node array — driven
// through the two calls persist made before probe: contains, then add on a
// miss. The DRAM set must give the same answers, evict the same victims and
// keep the same recency order.
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

// order lists the model's keys from most to least recently used.
func (h *hotModel) order() []hotModelKey {
	var keys []hotModelKey
	for i := h.head; i != -1; i = h.nodes[i].next {
		keys = append(keys, h.nodes[i].key)
	}
	return keys
}

// probeBoth runs one probe on the set and the contains-then-add pair on the
// model and fails on a different answer or a different eviction victim.
func probeBoth(t testing.TB, h *hotSet, ref *hotModel, clk *sim.Clock, table uint8, slot uint64) {
	t.Helper()
	var victim hotModelKey
	if h.tail != hotNone {
		k := h.space.ReadU64(nil, h.off(h.tail))
		victim = hotModelKey{uint8(k >> 1), k >> 9}
	}
	refVictim := ref.nodes[max(ref.tail, 0)].key
	ev, refEv := h.stats.Evictions, ref.stats.Evictions

	hot := h.probe(clk, table, slot)
	refHot := ref.contains(table, slot)
	if !refHot {
		ref.add(table, slot)
	}
	if hot != refHot {
		t.Fatalf("cap %d (%d,%d): probe hot=%v, model %v", ref.cap, table, slot, hot, refHot)
	}
	evicted, refEvicted := h.stats.Evictions != ev, ref.stats.Evictions != refEv
	if evicted != refEvicted || evicted && victim != refVictim {
		t.Fatalf("cap %d (%d,%d): eviction %v of %v, model %v of %v", ref.cap, table, slot, evicted, victim, refEvicted, refVictim)
	}
}

// TestHotSetProbeMatchesContainsAdd drives one seeded key stream through the
// DRAM set's probe and through the model's contains-then-add pair: the same
// hits and misses, the same eviction victims, the same final recency order.
func TestHotSetProbeMatchesContainsAdd(t *testing.T) {
	for _, capacity := range []int{1, 3, 256} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		h, ref := testHotSet(capacity), newHotModel(capacity)
		clk := sim.NewClock()
		for n := 0; n < 100_000; n++ {
			span := 4*capacity + 8 // half the stream revisits a hot few
			if rng.Intn(2) == 0 {
				span = capacity + 1
			}
			probeBoth(t, h, ref, clk, uint8(rng.Intn(3)), uint64(rng.Intn(span)))
		}
		if got, want := hotOrder(t, h), ref.order(); !slices.Equal(got, want) {
			t.Fatalf("cap %d: final LRU order differs:\n probe %v\n model %v", capacity, got, want)
		}
		got := h.stats
		got.Lines = 0
		if got != ref.stats {
			t.Fatalf("cap %d: stats %+v, model %+v", capacity, got, ref.stats)
		}
		if h.stats.Hits == 0 || h.stats.Evictions == 0 {
			t.Fatalf("cap %d: stream exercised no hits or no evictions: %+v", capacity, h.stats)
		}
	}
}

// FuzzHotSetModel drives the DRAM set and the model with the same probes: the
// first byte picks a capacity of 1 to 8, each further pair of bytes a table
// (of three) and a slot (of 24, so keys collide in the table and revisit the
// set). Every answer, every eviction victim and, after every probe, the whole
// recency order must match.
func FuzzHotSetModel(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 0, 1, 0, 3, 1, 1})
	f.Add([]byte{0, 0, 5, 1, 5, 2, 5, 0, 5})
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 1, 0, 10, 0, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		capacity := 1 + int(b[0]%8)
		h, ref := testHotSet(capacity), newHotModel(capacity)
		clk := sim.NewClock()
		for p := b[1:]; len(p) >= 2; p = p[2:] {
			probeBoth(t, h, ref, clk, p[0]%3, uint64(p[1]%24))
			if got, want := hotOrder(t, h), ref.order(); !slices.Equal(got, want) {
				t.Fatalf("cap %d: LRU order differs:\n probe %v\n model %v", capacity, got, want)
			}
		}
	})
}

func TestReservationsExclusive(t *testing.T) {
	r := newReservations(sim.DefaultCostModel())
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
	r := newReservations(sim.DefaultCostModel())
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
	tc := newTupleCache(1<<20, 128, sim.DefaultCostModel())
	clk := sim.NewClock()
	payload := bytes.Repeat([]byte{0xAB}, 128)
	buf := make([]byte, 128)

	if tc.get(clk, 1, 42, buf) {
		t.Fatal("hit on empty cache")
	}
	tc.put(clk, 1, 42, payload)
	if !tc.get(clk, 1, 42, buf) || !bytes.Equal(buf, payload) {
		t.Fatal("miss or corruption after put")
	}
	// Refresh with new content.
	payload2 := bytes.Repeat([]byte{0xCD}, 128)
	tc.put(clk, 1, 42, payload2)
	tc.get(clk, 1, 42, buf)
	if !bytes.Equal(buf, payload2) {
		t.Fatal("refresh did not replace content")
	}
	tc.invalidate(clk, 1, 42)
	if tc.get(clk, 1, 42, buf) {
		t.Fatal("hit after invalidate")
	}
}

func TestTupleCacheEvictsUnderPressure(t *testing.T) {
	// Tiny cache: 64 shards × 4 entries × 64 B.
	tc := newTupleCache(16<<10, 64, sim.DefaultCostModel())
	clk := sim.NewClock()
	payload := make([]byte, 64)
	for k := uint64(0); k < 10_000; k++ {
		tc.put(clk, 0, k, payload)
	}
	buf := make([]byte, 64)
	hits := 0
	for k := uint64(0); k < 10_000; k++ {
		if tc.get(clk, 0, k, buf) {
			hits++
		}
	}
	if hits == 0 || hits > 2000 {
		t.Fatalf("hits = %d; CLOCK eviction not bounding the cache", hits)
	}
}

func TestTupleCacheRejectsOversizedPayload(t *testing.T) {
	tc := newTupleCache(1<<20, 64, sim.DefaultCostModel())
	clk := sim.NewClock()
	tc.put(clk, 0, 1, make([]byte, 65)) // silently ignored
	if tc.get(clk, 0, 1, make([]byte, 64)) {
		t.Fatal("oversized payload was cached")
	}
}
