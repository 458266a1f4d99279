package core

import (
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
// a miss, inserts, for one DRAM access: the decision must cost less than the
// flush it may save. It is single-owner (one worker thread), so it needs no
// locking; recency is an intrusive doubly-linked list over a fixed node array.
type hotSet struct {
	cap   int
	m     map[hotKey]int // key -> node index
	nodes []hotNode
	head  int // most recently used (-1 = empty)
	tail  int // least recently used (-1 = empty)
	free  int // free-list head through next links (-1 = full)
	cost  sim.CostModel
	// stats counts hits (flushes elided), misses (tuples newly tracked) and
	// evictions; single-owner like the set itself.
	stats obs.HotSetStats
}

type hotNode struct {
	key        hotKey
	prev, next int
}

type hotKey struct {
	table uint8
	slot  uint64
}

func newHotSet(capacity int, cost sim.CostModel) *hotSet {
	if capacity < 1 {
		capacity = 1
	}
	h := &hotSet{
		cap:   capacity,
		m:     make(map[hotKey]int, capacity+1),
		nodes: make([]hotNode, capacity),
		head:  -1,
		tail:  -1,
		cost:  cost,
	}
	for i := range h.nodes {
		h.nodes[i].next = i + 1
	}
	h.nodes[capacity-1].next = -1
	h.free = 0
	return h
}

// touchFront moves node i to the MRU end of the list.
func (h *hotSet) touchFront(i int) {
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

// probe is Algorithm 1 lines 9-11 in one DRAM access: it reports whether the
// tuple is tracked hot, refreshing its recency, and otherwise starts tracking
// it — in the bucket the lookup just loaded — evicting the least recently used
// entry when full.
func (h *hotSet) probe(clk *sim.Clock, table uint8, slot uint64) (hot bool) {
	clk.Advance(h.cost.DRAMFirstLine)
	k := hotKey{table, slot}
	if i, ok := h.m[k]; ok {
		h.touchFront(i)
		h.stats.Hits++
		return true
	}
	h.stats.Misses++
	i := h.free
	if i != -1 {
		h.free = h.nodes[i].next
	} else {
		// Full: reuse the LRU node. The new entry is by definition the most
		// recent, so it can never be its own victim.
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
	return false
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
