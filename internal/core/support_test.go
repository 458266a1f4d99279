package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"falcon/internal/sim"
)

func TestHotSetLRUEviction(t *testing.T) {
	h := newHotSet(3, sim.DefaultCostModel())
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
	if got := hotOrder(h); !slices.Equal(got, []hotKey{{0, 4}, {0, 1}, {0, 3}}) {
		t.Fatalf("LRU order after eviction = %v, want 4 1 3", got)
	}
}

func TestHotSetDistinguishesTables(t *testing.T) {
	h := newHotSet(8, sim.DefaultCostModel())
	clk := sim.NewClock()
	h.probe(clk, 1, 7)
	if h.probe(clk, 2, 7) {
		t.Fatal("slot 7 of table 2 confused with table 1")
	}
}

func TestHotSetChargesVirtualTime(t *testing.T) {
	h := newHotSet(4, sim.DefaultCostModel())
	clk := sim.NewClock()
	h.probe(clk, 0, 1)
	h.probe(clk, 0, 1)
	if clk.Nanos() == 0 {
		t.Fatal("hot-set operations must charge DRAM costs")
	}
}

// hotOrder lists the set's keys from most to least recently used.
func hotOrder(h *hotSet) []hotKey {
	var keys []hotKey
	for i := h.head; i != -1; i = h.nodes[i].next {
		keys = append(keys, h.nodes[i].key)
	}
	return keys
}

// refContains and refAdd are the hot set's two calls before they became probe,
// kept verbatim as the model probe must match: persist asked contains and, on
// a miss, add, each charging one DRAM access.
func refContains(h *hotSet, clk *sim.Clock, table uint8, slot uint64) bool {
	clk.Advance(h.cost.DRAMFirstLine)
	k := hotKey{table, slot}
	if i, ok := h.m[k]; ok {
		h.touchFront(i)
		h.stats.Hits++
		return true
	}
	h.stats.Misses++
	return false
}

func refAdd(h *hotSet, clk *sim.Clock, table uint8, slot uint64) {
	clk.Advance(h.cost.DRAMFirstLine)
	k := hotKey{table, slot}
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

// TestHotSetProbeMatchesContainsAdd drives one seeded key stream through probe
// and through the contains-then-add pair it replaced: the same hits and misses,
// the same eviction victims, the same final recency order, and one DRAM access
// per probe where the pair charged two per miss.
func TestHotSetProbeMatchesContainsAdd(t *testing.T) {
	cost := sim.DefaultCostModel()
	for _, capacity := range []int{1, 3, 256} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		h, ref := newHotSet(capacity, cost), newHotSet(capacity, cost)
		clk, refClk := sim.NewClock(), sim.NewClock()
		for n := 0; n < 100_000; n++ {
			span := 4*capacity + 8 // half the stream revisits a hot few
			if rng.Intn(2) == 0 {
				span = capacity + 1
			}
			table, slot := uint8(rng.Intn(3)), uint64(rng.Intn(span))
			victim, refVictim := h.nodes[max(h.tail, 0)].key, ref.nodes[max(ref.tail, 0)].key
			ev, refEv := h.stats.Evictions, ref.stats.Evictions

			before := clk.Nanos()
			hot := h.probe(clk, table, slot)
			if d := clk.Nanos() - before; d != cost.DRAMFirstLine {
				t.Fatalf("cap %d call %d: probe charged %d ns, want one DRAMFirstLine (%d)", capacity, n, d, cost.DRAMFirstLine)
			}
			refHot := refContains(ref, refClk, table, slot)
			if !refHot {
				refAdd(ref, refClk, table, slot)
			}

			if hot != refHot {
				t.Fatalf("cap %d call %d (%d,%d): probe hot=%v, contains=%v", capacity, n, table, slot, hot, refHot)
			}
			evicted, refEvicted := h.stats.Evictions != ev, ref.stats.Evictions != refEv
			if evicted != refEvicted || evicted && victim != refVictim {
				t.Fatalf("cap %d call %d: eviction %v of %v, reference %v of %v", capacity, n, evicted, victim, refEvicted, refVictim)
			}
		}
		if got, want := hotOrder(h), hotOrder(ref); !slices.Equal(got, want) {
			t.Fatalf("cap %d: final LRU order differs:\n probe %v\n   ref %v", capacity, got, want)
		}
		if h.stats != ref.stats {
			t.Fatalf("cap %d: stats %+v, reference %+v", capacity, h.stats, ref.stats)
		}
		if h.stats.Hits == 0 || h.stats.Evictions == 0 {
			t.Fatalf("cap %d: stream exercised no hits or no evictions: %+v", capacity, h.stats)
		}
	}
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
