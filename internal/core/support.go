package core

import (
	"math/bits"
	"sync"

	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// hotSet is the per-thread hot-tuple LRU used by selective data flush
// (§4.4): tuples present in the set are never manually flushed, so their
// dirty lines stay in the (persistent) cache until natural eviction —
// which for genuinely hot tuples means almost never.
//
// A commit asks it once per written tuple, with one probe that answers and, on
// a miss, inserts. The set is data in the engine's DRAM space, read and
// written a word at a time through it, so a probe costs what the lines it
// touches cost: a cold set pays DRAM, a resident one cache hits, and in group
// mode the worker's own partition answers. Its region is an open-addressed,
// linearly probed table of 16 B entries, at most a quarter full: a key word
// (the tuple with a used bit; 0 = empty) and a link word (the previous and
// next entry of the recency list, high and low half), so the list runs
// through the table itself. The list's ends, the head's next link and the
// entry count are the owning worker's registers; the head's prev link and the
// tail's next link are never read, so they are left stale rather than kept at
// the price of a line access. It is single-owner (one worker thread), so it
// needs no locking.
type hotSet struct {
	space      *pmem.MemSpace
	base       uint64 // offset of entry 0 in space
	mask       uint32 // entries - 1 (entries is a power of two)
	shift      uint8  // 64 - log2(entries)
	cap, n     int
	head, tail uint32 // most and least recently used entry (hotNone = empty)
	headNext   uint32 // the head's next link, as its link word holds it
	// stats counts hits (flushes elided), misses (tuples newly tracked),
	// evictions and the line accesses; single-owner like the set itself.
	stats obs.HotSetStats
}

// hotEntryBytes is one entry: the key word, then the link word.
const hotEntryBytes = 16

// hotNone is the link to no entry.
const hotNone = ^uint32(0)

// hotEntries is the table length for a capacity: four times it, rounded up
// to a power of two, so short probe runs keep lookups and removals to a line
// access or two.
func hotEntries(capacity int) uint64 {
	n := uint64(2)
	for n < 4*uint64(max(capacity, 1)) {
		n <<= 1
	}
	return n
}

// hotSetBytes is the size of the DRAM region a set of the given capacity
// occupies.
func hotSetBytes(capacity int) uint64 { return hotEntries(capacity) * hotEntryBytes }

// newHotSet lays an empty set over the zeroed region of space at base.
func newHotSet(space *pmem.MemSpace, base uint64, capacity int) *hotSet {
	n := hotEntries(capacity)
	return &hotSet{
		space: space,
		base:  base,
		mask:  uint32(n - 1),
		shift: uint8(64 - bits.TrailingZeros64(n)),
		cap:   max(capacity, 1),
		head:  hotNone,
		tail:  hotNone,
	}
}

// hotKey is a tuple's key word: its slot and table with the used bit set.
func hotKey(table uint8, slot uint64) uint64 { return slot<<9 | uint64(table)<<1 | 1 }

// home is the first entry probed for key.
func (h *hotSet) home(key uint64) uint32 { return uint32(key * 0x9e3779b97f4a7c15 >> h.shift) }

func (h *hotSet) off(i uint32) uint64 { return h.base + uint64(i)*hotEntryBytes }

// The accessors below are the set's only way to its entries; each reads or
// writes one word, one line.

func (h *hotSet) keyAt(clk *sim.Clock, i uint32) uint64 {
	h.stats.Lines++
	return h.space.ReadU64(clk, h.off(i))
}

func (h *hotSet) linksAt(clk *sim.Clock, i uint32) (prev, next uint32) {
	h.stats.Lines++
	w := h.space.ReadU64(clk, h.off(i)+8)
	return uint32(w >> 32), uint32(w)
}

func (h *hotSet) setLinks(clk *sim.Clock, i, prev, next uint32) {
	h.stats.Lines++
	h.space.WriteU64(clk, h.off(i)+8, uint64(prev)<<32|uint64(next))
}

func (h *hotSet) setEntry(clk *sim.Clock, i uint32, key uint64, prev, next uint32) {
	h.stats.Lines++
	h.space.WriteU64Pair(clk, h.off(i), key, uint64(prev)<<32|uint64(next))
}

func (h *hotSet) clearKey(clk *sim.Clock, i uint32) {
	h.stats.Lines++
	h.space.WriteU64(clk, h.off(i), 0)
}

// setPrev and setNext rewrite one half of entry i's link word, reading the
// other half first unless it is stale (the tail's next, the head's prev) or
// headNext holds it.
func (h *hotSet) setPrev(clk *sim.Clock, i, prev uint32) {
	next := hotNone
	switch i {
	case h.tail:
	case h.head:
		next = h.headNext
	default:
		_, next = h.linksAt(clk, i)
	}
	h.setLinks(clk, i, prev, next)
}

func (h *hotSet) setNext(clk *sim.Clock, i, next uint32) {
	prev := hotNone
	if i == h.head {
		h.headNext = next
	} else {
		prev, _ = h.linksAt(clk, i)
	}
	h.setLinks(clk, i, prev, next)
}

// pushFront makes entry i, whose link word already names the old head as
// its next, the most recent.
func (h *hotSet) pushFront(clk *sim.Clock, i uint32) {
	if h.head == hotNone {
		h.tail = i
	} else {
		h.setPrev(clk, h.head, i)
	}
	h.head, h.headNext = i, h.head
}

// probe is Algorithm 1 lines 9-11 in one lookup: it reports whether the tuple
// is tracked hot, refreshing its recency, and otherwise starts tracking it —
// in the empty entry the lookup ended on — evicting the least recently used
// entry when full.
func (h *hotSet) probe(clk *sim.Clock, table uint8, slot uint64) (hot bool) {
	key := hotKey(table, slot)
	home := h.home(key)
	i := home
	for k := h.keyAt(clk, i); k != 0; k = h.keyAt(clk, i) {
		if k == key {
			h.stats.Hits++
			h.toFront(clk, i)
			return true
		}
		i = (i + 1) & h.mask
	}
	h.stats.Misses++
	if h.n == h.cap {
		// Full: drop the LRU entry. The new one is by definition the most
		// recent, so it can never be its own victim. If the drop left an
		// entry of the new key's probe run empty, the key goes there.
		h.stats.Evictions++
		if hole := h.evictTail(clk); (hole-home)&h.mask < (i-home)&h.mask {
			i = hole
		} else {
			h.clearKey(clk, hole)
		}
	} else {
		h.n++
	}
	h.setEntry(clk, i, key, hotNone, h.head)
	h.pushFront(clk, i)
	return false
}

// toFront moves entry i to the MRU end of the recency list.
func (h *hotSet) toFront(clk *sim.Clock, i uint32) {
	if i == h.head {
		return
	}
	prev, next := h.linksAt(clk, i) // prev is an entry: i is not the head
	if i == h.tail {
		h.tail = prev
	} else {
		h.setNext(clk, prev, next)
		h.setPrev(clk, next, prev)
	}
	h.setLinks(clk, i, hotNone, h.head)
	h.pushFront(clk, i)
}

// evictTail unlinks the least recently used entry and removes it from the
// table, returning the entry the removal left to be emptied.
func (h *hotSet) evictTail(clk *sim.Clock) uint32 {
	v := h.tail
	if v == h.head {
		h.head, h.tail = hotNone, hotNone
	} else {
		h.tail, _ = h.linksAt(clk, v)
	}
	return h.remove(clk, v)
}

// remove takes entry hole, which the recency list no longer reaches, out of
// the table by shifting later entries of its probe run back over it (no
// tombstones): an entry moves into the hole unless its home lies cyclically
// after the hole, so every remaining key stays reachable from its home. A
// moved entry keeps its place in the recency list — its neighbours' links
// follow it. remove returns the entry finally left over, still holding its
// old key word: the caller empties it, or reuses it at once.
func (h *hotSet) remove(clk *sim.Clock, hole uint32) uint32 {
	for j := (hole + 1) & h.mask; ; j = (j + 1) & h.mask {
		k := h.keyAt(clk, j)
		if k == 0 {
			return hole
		}
		if (j-h.home(k))&h.mask < (j-hole)&h.mask {
			continue
		}
		prev, next := h.linksAt(clk, j)
		h.setEntry(clk, hole, k, prev, next)
		if j == h.head {
			h.head = hole
		} else {
			h.setNext(clk, prev, hole)
		}
		if j == h.tail {
			h.tail = hole
		} else {
			h.setPrev(clk, next, hole)
		}
		hole = j
	}
}

// reservations provides short-lived key latches for inserts: a transaction
// reserves (table, key) before buffering the insert, guaranteeing that the
// index insert performed after the durable commit point can never hit a
// duplicate. Reservations are volatile by design — after a crash no
// transaction is mid-insert.
type reservations struct {
	shards [64]resShard
	cost   sim.CostModel
}

type resShard struct {
	mu sync.Mutex
	m  map[resKey]struct{}
}

type resKey struct {
	table uint8
	key   uint64
}

func newReservations(cost sim.CostModel) *reservations {
	r := &reservations{cost: cost}
	for i := range r.shards {
		r.shards[i].m = make(map[resKey]struct{})
	}
	return r
}

func (r *reservations) shard(k resKey) *resShard {
	return &r.shards[(k.key^uint64(k.table))&63]
}

// tryReserve claims (table, key), failing if another in-flight transaction
// holds it.
func (r *reservations) tryReserve(clk *sim.Clock, table uint8, key uint64) bool {
	clk.Advance(r.cost.DRAMFirstLine)
	k := resKey{table, key}
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, taken := s.m[k]; taken {
		return false
	}
	s.m[k] = struct{}{}
	return true
}

// release frees a reservation.
func (r *reservations) release(clk *sim.Clock, table uint8, key uint64) {
	clk.Advance(r.cost.DRAMFirstLine)
	k := resKey{table, key}
	s := r.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// tupleCache is the ZenS-style DRAM tuple cache: recently read tuples are
// kept in volatile memory so repeated reads skip NVM. Entries are keyed by
// (table, primary key), so they stay valid across out-of-place relocations;
// committed updates refresh the entry.
//
// Payloads live in a DRAM space so hits charge realistic DRAM/cache costs.
// Eviction is per-shard CLOCK.
type tupleCache struct {
	space     *pmem.MemSpace
	slotBytes int
	perShard  int
	shards    [64]tcShard
	cost      sim.CostModel
}

type tcShard struct {
	mu   sync.Mutex
	m    map[uint64]int // packed key -> entry index within shard
	keys []uint64       // entry -> packed key (0 = free)
	ref  []bool
	hand int
}

func newTupleCache(totalBytes, slotBytes int, cost sim.CostModel) *tupleCache {
	if slotBytes < 64 {
		slotBytes = 64
	}
	entries := totalBytes / slotBytes
	perShard := entries / len((&tupleCache{}).shards)
	if perShard < 4 {
		perShard = 4
	}
	c := &tupleCache{
		space:     pmem.NewDRAM(uint64(64*perShard*slotBytes), cost),
		slotBytes: slotBytes,
		perShard:  perShard,
		cost:      cost,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]int, perShard)
		c.shards[i].keys = make([]uint64, perShard)
		c.shards[i].ref = make([]bool, perShard)
	}
	return c
}

func pack(table uint8, key uint64) uint64 {
	// Tables are few and keys rarely use the top byte; mix the table id in.
	return key ^ (uint64(table) << 56) ^ (uint64(table) * 0x9E3779B97F4A7C15)
}

func (c *tupleCache) offset(shard, entry int) uint64 {
	return uint64((shard*c.perShard + entry) * c.slotBytes)
}

// get copies a cached payload into dst, reporting a hit.
func (c *tupleCache) get(clk *sim.Clock, table uint8, key uint64, dst []byte) bool {
	pk := pack(table, key)
	sh := &c.shards[pk&63]
	clk.Advance(c.cost.DRAMFirstLine)
	sh.mu.Lock()
	i, ok := sh.m[pk]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	sh.ref[i] = true
	off := c.offset(int(pk&63), i)
	c.space.Read(clk, off, dst)
	sh.mu.Unlock()
	return true
}

// put installs or refreshes a cached payload.
func (c *tupleCache) put(clk *sim.Clock, table uint8, key uint64, payload []byte) {
	if len(payload) > c.slotBytes {
		return
	}
	pk := pack(table, key)
	sh := &c.shards[pk&63]
	clk.Advance(c.cost.DRAMFirstLine)
	sh.mu.Lock()
	i, ok := sh.m[pk]
	if !ok {
		i = sh.evictLocked()
		if old := sh.keys[i]; old != 0 {
			delete(sh.m, old)
		}
		sh.m[pk] = i
		sh.keys[i] = pk
	}
	sh.ref[i] = true
	c.space.Write(clk, c.offset(int(pk&63), i), payload)
	sh.mu.Unlock()
}

// invalidate drops a cached entry (delete path).
func (c *tupleCache) invalidate(clk *sim.Clock, table uint8, key uint64) {
	pk := pack(table, key)
	sh := &c.shards[pk&63]
	clk.Advance(c.cost.DRAMFirstLine)
	sh.mu.Lock()
	if i, ok := sh.m[pk]; ok {
		delete(sh.m, pk)
		sh.keys[i] = 0
		sh.ref[i] = false
	}
	sh.mu.Unlock()
}

// clear drops every cached entry (group-mode entry: the shared cache goes
// dormant while per-worker caches serve reads, and its contents would be
// stale on return). Payload bytes in the DRAM space need no scrubbing — an
// entry is live only while referenced from a shard map.
func (c *tupleCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			delete(sh.m, k)
		}
		for j := range sh.keys {
			sh.keys[j] = 0
			sh.ref[j] = false
		}
		sh.hand = 0
		sh.mu.Unlock()
	}
}

// evictLocked runs CLOCK over the shard and returns a free entry index.
func (s *tcShard) evictLocked() int {
	for {
		i := s.hand
		s.hand = (s.hand + 1) % len(s.keys)
		if s.keys[i] == 0 {
			return i
		}
		if s.ref[i] {
			s.ref[i] = false
			continue
		}
		return i
	}
}
