package core

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// hotSet is the per-thread hot-tuple set used by selective data flush
// (§4.4): tuples present in the set are never manually flushed, so their
// dirty lines stay in the (persistent) cache until natural eviction —
// which for genuinely hot tuples means almost never.
//
// A commit asks it once per written tuple, with one probe that answers and, on
// a miss, inserts. The set is data in the engine's DRAM space, so a probe costs
// what the lines it touches cost: a cold set pays DRAM, a resident one cache
// hits. Its region is a set-associative table of hotWays-way sets, one 64 B
// line each: hotWays key words (the tuple with a used bit; 0 = empty) in
// recency order, way 0 the most recent, the empty ways last. A probe reads its
// key's line and, unless the key is already at way 0, writes it back with the
// key moved or inserted at way 0; a miss on a full set drops the last way. So
// recency is exact within a set, not across the table. It is single-owner (one
// worker thread), so it needs no locking.
type hotSet struct {
	space *pmem.MemSpace
	base  uint64 // offset of set 0 in space
	sets  uint64
	// stats counts hits (flushes elided), misses (tuples newly tracked),
	// evictions and the line accesses; single-owner like the set itself.
	stats obs.HotSetStats
}

// hotWays is the number of key words in a set's line.
const hotWays = pmem.LineSize / 8

// hotSets is the number of sets for a capacity: enough hotWays-way sets to
// hold it, at least one.
func hotSets(capacity int) uint64 { return max(uint64(capacity+hotWays-1)/hotWays, 1) }

// hotCapFor is the capacity an engine derives for a worker's hot set from
// share, the bytes of that worker's share of the cache, and stride, the
// widest heap slot stride among its tables: as many of the widest tuples as
// fill half the share, rounded up to whole sets as hotSets rounds. The other
// half is left to the worker's log window, index nodes and the tuples it
// reads.
func hotCapFor(share int, stride uint64) int {
	return int(hotSets(int(max(uint64(share)/2/stride, 1))) * hotWays)
}

// hotSetBytes is the size of the DRAM region a set of the given capacity
// occupies.
func hotSetBytes(capacity int) uint64 { return hotSets(capacity) * pmem.LineSize }

// newHotSet lays an empty set over the zeroed, line-aligned region of space
// at base.
func newHotSet(space *pmem.MemSpace, base uint64, capacity int) *hotSet {
	return &hotSet{space: space, base: base, sets: hotSets(capacity)}
}

// hotKey is a tuple's key word: its slot and table with the used bit set.
func hotKey(table uint8, slot uint64) uint64 { return slot<<9 | uint64(table)<<1 | 1 }

// line is the offset of key's set: the high word of the key's Fibonacci
// hash times the set count, which for a power-of-two count is the hash's top
// bits.
func (h *hotSet) line(key uint64) uint64 {
	si, _ := bits.Mul64(key*0x9e3779b97f4a7c15, h.sets)
	return h.base + si*pmem.LineSize
}

// probe is Algorithm 1 lines 9-11 in one line read and at most one line
// write: it reports whether the tuple is tracked hot, making it its set's most
// recent, and otherwise starts tracking it, evicting the set's least recent
// tuple when the set is full.
func (h *hotSet) probe(clk *sim.Clock, table uint8, slot uint64) (hot bool) {
	key := hotKey(table, slot)
	off := h.line(key)
	var w [pmem.LineSize]byte
	h.space.Read(clk, off, w[:])
	h.stats.Lines++
	j := 0 // the key's way, else the first empty one, else the last
	for ; j < hotWays-1; j++ {
		if k := binary.LittleEndian.Uint64(w[8*j:]); k == key || k == 0 {
			break
		}
	}
	switch binary.LittleEndian.Uint64(w[8*j:]) {
	case key:
		h.stats.Hits++
		if j == 0 {
			return true
		}
		hot = true
	case 0:
		h.stats.Misses++
	default:
		h.stats.Misses++
		h.stats.Evictions++
	}
	copy(w[8:8*j+8], w[:8*j])
	binary.LittleEndian.PutUint64(w[:], key)
	h.space.Write(clk, off, w[:])
	h.stats.Lines++
	return hot
}

// reservations provides short-lived key latches for inserts: a transaction
// reserves (table, key) before buffering the insert, guaranteeing that the
// index insert performed after the durable commit point can never hit a
// duplicate. Reservations are volatile by design — after a crash no
// transaction is mid-insert.
type reservations struct {
	shards [64]resShard
}

type resShard struct {
	mu sync.Mutex
	m  map[resKey]struct{}
}

type resKey struct {
	table uint8
	key   uint64
}

func newReservations() *reservations {
	r := &reservations{}
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
	clk.Advance(sim.DRAMFirstLine)
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
	clk.Advance(sim.DRAMFirstLine)
	k := resKey{table, key}
	s := r.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// tupleCache is the ZenS-style DRAM tuple cache: recently read tuples are
// kept in volatile memory so repeated reads skip NVM. Entries are keyed by
// (table, key) and committed updates refresh them. An entry also names the
// heap slot its payload is the image of, and a read takes it only for the slot
// it resolved: otherwise a reader's late fill from a version that a writer has
// just superseded would pass for the new version (a lost update), and a scan's
// fill under a secondary key, which no writer refreshes, would go stale.
//
// Payloads live in a DRAM space so hits charge realistic DRAM/cache costs.
// Eviction is per-shard CLOCK.
type tupleCache struct {
	space     *pmem.MemSpace
	slotBytes int
	perShard  int
	shards    [64]tcShard
}

type tcShard struct {
	mu    sync.Mutex
	m     map[uint64]int // packed key -> entry index within shard
	keys  []uint64       // entry -> packed key (0 = free)
	slots []uint64       // entry -> the heap slot its payload is the image of
	ref   []bool
	hand  int
}

func newTupleCache(totalBytes, slotBytes int) *tupleCache {
	if slotBytes < 64 {
		slotBytes = 64
	}
	entries := totalBytes / slotBytes
	perShard := entries / len((&tupleCache{}).shards)
	if perShard < 4 {
		perShard = 4
	}
	c := &tupleCache{
		space:     pmem.NewDRAM(uint64(64 * perShard * slotBytes)),
		slotBytes: slotBytes,
		perShard:  perShard,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]int, perShard)
		c.shards[i].keys = make([]uint64, perShard)
		c.shards[i].slots = make([]uint64, perShard)
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

// get copies the cached image of slot into dst, reporting a hit.
func (c *tupleCache) get(clk *sim.Clock, table uint8, key, slot uint64, dst []byte) bool {
	pk := pack(table, key)
	sh := &c.shards[pk&63]
	clk.Advance(sim.DRAMFirstLine)
	sh.mu.Lock()
	i, ok := sh.m[pk]
	if !ok || sh.slots[i] != slot {
		sh.mu.Unlock()
		return false
	}
	sh.ref[i] = true
	off := c.offset(int(pk&63), i)
	c.space.Read(clk, off, dst)
	sh.mu.Unlock()
	return true
}

// put installs or refreshes key's cached payload, the image of slot (a no-op
// on an engine with no tuple cache: c is nil).
func (c *tupleCache) put(clk *sim.Clock, table uint8, key, slot uint64, payload []byte) {
	if c == nil || len(payload) > c.slotBytes {
		return
	}
	pk := pack(table, key)
	sh := &c.shards[pk&63]
	clk.Advance(sim.DRAMFirstLine)
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
	sh.ref[i], sh.slots[i] = true, slot
	c.space.Write(clk, c.offset(int(pk&63), i), payload)
	sh.mu.Unlock()
}

// invalidate drops a cached entry (delete path; a no-op when c is nil).
func (c *tupleCache) invalidate(clk *sim.Clock, table uint8, key uint64) {
	if c == nil {
		return
	}
	pk := pack(table, key)
	sh := &c.shards[pk&63]
	clk.Advance(sim.DRAMFirstLine)
	sh.mu.Lock()
	if i, ok := sh.m[pk]; ok {
		delete(sh.m, pk)
		sh.keys[i] = 0
		sh.ref[i] = false
	}
	sh.mu.Unlock()
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
