package pmem

import (
	"sync/atomic"
	"unsafe"

	"falcon/internal/sim"
)

// backend is the memory level beneath a Cache: the XPBuffer+media stack for
// NVM, or a flat DRAM array for volatile spaces. Write-backs and fills charge
// the backend's own latencies.
type backend interface {
	// writeBackLine accepts one dirty 64 B line written back from the cache.
	writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte)
	// fillLine reads the current content of one 64 B line into dst.
	fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte)
	// drain propagates any buffered state to its durable/home location.
	drain(clk *sim.Clock)
}

// Cache is a functional set-associative CPU cache in front of a memory
// backend. Dirty lines hold the authoritative copy of their data: the
// backend only sees a line when it is written back by replacement, by CLWB,
// or by the eADR crash flush. This makes persistence behaviour — the entire
// subject of the paper — directly observable in tests.
//
// Every simulated memory access funnels through accessLine, so the host
// layout is built around what one access costs the host — dependent cache
// misses and locked instructions: per-set state is one contiguous block of
// meta and the payloads one flat array, so every address follows from the set
// index; multi-line spans touch their set blocks before walking them (see
// touch); hit/miss counts are added once per call.
type Cache struct {
	mode   Mode
	ways   int
	nsets  uint64
	stride uint64 // words per set block, a multiple of 8 (one host cache line)
	limit  uint64
	// meta holds the set blocks, the first on a 64 B boundary. All zero is an
	// empty cache.
	meta []uint64
	// data holds the payloads, way w of set s at s*ways+w. It is nil in a
	// dataless, timing-only cache: hit/miss/eviction state and cost charging
	// run as usual, but line payloads are never copied in or out.
	// Deterministic worker-parallel mode uses one dataless cache per worker
	// for timing while the device holds the authoritative bytes (see
	// System.EnterGroup) — payload copies here would both waste host work
	// and race with other workers' direct device access.
	data  [][LineSize]byte
	lower backend
	stats *Stats
	cost  sim.CostModel
	// faults, when non-nil, is the armed crash-injection plan (test
	// harnesses only; see FaultPlan). Nil on every production path, so the
	// hot loops pay a single predictable branch.
	faults *FaultPlan
	// hook, when non-nil, receives every dirty-line writeback (see FlushFn).
	// Writebacks are off the hit path, so the disarmed cost is one pointer
	// test per writeback.
	hook FlushFn
}

// Word offsets inside a set block. Every access writes the lock and the
// tick, so blocks are whole, aligned host cache lines: adjacent sets never
// share one and bounce it between workers hitting different sets.
const (
	setLock = iota // spinlock word; the only word read without the lock (touch)
	setTick        // last LRU tick handed out
	setTags        // ways tags, then ways LRU words
)

const (
	// tagValid marks an occupied way: a tag is the line address (low six
	// bits zero) with this bit set, so the zero word is an empty way and
	// findHit is a bare compare.
	tagValid = 1
	// lruDirty marks a dirty line: an LRU word is the way's last-access
	// tick shifted left one, with this bit set while the line is dirty.
	lruDirty = 1
)

// setWords returns the size of one set block in words.
func setWords(ways int) uint64 { return (setTags + 2*uint64(ways) + 7) &^ 7 }

// newCache creates a cache of capacityBytes with the given associativity
// over the backend. The set count is rounded down to a power of two so set
// indexing is a mask. limit bounds valid addresses. A dataless cache (see
// Cache.data) needs a backend that ignores the line pointers it is given.
func newCache(lower backend, stats *Stats, mode Mode, capacityBytes, ways int, limit uint64, cost sim.CostModel, dataless bool) *Cache {
	if ways < 1 {
		ways = 1
	}
	nsets := uint64(capacityBytes / LineSize / ways)
	if nsets < 1 {
		nsets = 1
	}
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1 // round down to a power of two
	}
	c := &Cache{mode: mode, ways: ways, nsets: nsets, stride: setWords(ways), limit: limit,
		lower: lower, stats: stats, cost: cost}
	raw := make([]uint64, nsets*c.stride+7)
	skip := -uintptr(unsafe.Pointer(&raw[0])) % 64 / 8 // the heap does not move: alignment holds
	c.meta = raw[skip : skip+uintptr(nsets*c.stride)]
	if !dataless {
		c.data = make([][LineSize]byte, nsets*uint64(ways))
	}
	return c
}

// Mode returns the persistence domain configuration.
func (c *Cache) Mode() Mode { return c.mode }

// setFor hashes the line address to a set. Real last-level caches hash
// their set index (Intel's slice/CBo hashing), which decorrelates the
// eviction times of adjacent lines; without this, a tuple's lines would be
// evicted together and merge in the XPBuffer even when never flushed,
// erasing the write-amplification effect the paper builds on (§3.3).
func (c *Cache) setFor(lineAddr uint64) uint64 {
	x := lineAddr / LineSize
	x ^= x >> 17
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & (c.nsets - 1)
}

// set returns set si's block and, within it, the tag and LRU arrays.
func (c *Cache) set(si uint64) (blk, tags, lru []uint64) {
	blk = c.meta[si*c.stride : (si+1)*c.stride]
	return blk, blk[setTags : setTags+c.ways], blk[setTags+c.ways : setTags+2*c.ways]
}

// line returns the payload of way w of set si, or nil in a dataless cache
// (whose backend never looks at it).
func (c *Cache) line(si uint64, w int) *[LineSize]byte {
	if c.data == nil {
		return nil
	}
	return &c.data[si*uint64(c.ways)+uint64(w)]
}

// touch starts the host-cache fills of the set blocks of every line in
// [la, end) before a multi-line span is walked. The walk takes each set's
// lock in turn and a locked instruction drains the pipeline, so without this
// the up-to-16 independent host misses of a 1 KB tuple would queue one behind
// the other. The lock word is the one word of a block only ever accessed
// atomically, so an atomic load — a plain MOV — is race-clean.
func (c *Cache) touch(la, end uint64) {
	if end-la <= LineSize {
		return
	}
	for ; la < end; la += LineSize {
		atomic.LoadUint64(&c.meta[c.setFor(la)*c.stride+setLock])
	}
}

func (c *Cache) checkRange(addr uint64, n int) {
	if addr > c.limit || uint64(n) > c.limit-addr {
		panic("pmem: access beyond space bounds")
	}
}

// Store writes src to [addr, addr+len(src)), installing the affected lines
// as dirty. The backend is not touched except through replacement
// write-backs.
func (c *Cache) Store(clk *sim.Clock, addr uint64, src []byte) {
	if c.faults != nil {
		c.faults.note(FaultStore)
		c.faults.check()
	}
	c.access(clk, addr, src, true)
}

// Load reads [addr, addr+len(dst)) into dst through the cache, installing
// missing lines as clean.
func (c *Cache) Load(clk *sim.Clock, addr uint64, dst []byte) { c.access(clk, addr, dst, false) }

// access walks the lines of [addr, addr+len(buf)) in address order, storing
// buf to them or loading it from them.
func (c *Cache) access(clk *sim.Clock, addr uint64, buf []byte, store bool) {
	c.checkRange(addr, len(buf))
	sh := c.stats.ShardFor(clk)
	if store {
		sh.BytesStored.Add(uint64(len(buf)))
	}
	la := lineFloor(addr)
	off := int(addr - la)
	if uint(len(buf)-1) < uint(LineSize-off) && c.faults == nil {
		// One to LineSize-off bytes, as every aligned word is: one line, no
		// span to walk (an armed fault plan wants the walk's check points).
		if c.accessLine(clk, sh, la, off, buf, store) {
			sh.CacheHits.Add(1)
		} else {
			sh.CacheMisses.Add(1)
		}
		return
	}
	c.touch(la, addr+uint64(len(buf)))
	var hits, misses uint64
	for len(buf) > 0 {
		n := min(LineSize-off, len(buf))
		if c.accessLine(clk, sh, la, off, buf[:n], store) {
			hits++
		} else {
			misses++
		}
		if c.faults != nil {
			// The line may have noted evictions/drains under the set lock;
			// fire the pending crash now that no lock is held, with the
			// counts up to date in case it unwinds.
			sh.addLines(hits, misses)
			hits, misses = 0, 0
			c.faults.check()
		}
		la, off, buf = la+LineSize, 0, buf[n:]
	}
	sh.addLines(hits, misses)
}

// accessLine stores buf at off within one line, or loads it from there, and
// reports whether the line was resident.
func (c *Cache) accessLine(clk *sim.Clock, sh *StatShard, lineAddr uint64, off int, buf []byte, store bool) bool {
	si := c.setFor(lineAddr)
	blk, tags, lru := c.set(si)
	lockWord(&blk[setLock])
	w := findHit(tags, lineAddr)
	hit := w >= 0
	if hit {
		blk[setTick]++
		lru[w] = blk[setTick]<<1 | lru[w]&lruDirty
		clk.Advance(c.cost.CacheHitLine)
	} else {
		// Allocate with fill: the untouched bytes of the line must come from
		// below. A store covering the whole line skips the fill — every byte
		// is about to be overwritten, so the read-modify-write would be pure
		// wasted host work and a spurious media/buffer read.
		w = c.missLocked(clk, sh, si, lineAddr, !store || len(buf) != LineSize)
	}
	if store {
		lru[w] |= lruDirty
	}
	if line := c.line(si, w); line != nil {
		if store {
			copyLine(line[off:off+len(buf)], buf)
		} else {
			copyLine(buf, line[off:off+len(buf)])
		}
	}
	unlockWord(&blk[setLock])
	return hit
}

// copyLine is copy for two equally long pieces of a line. A whole line and
// one word, the two lengths the engine moves most, are fixed-size moves
// instead of memmove calls; the whole line goes through a local because the
// compiler only inlines a move whose ends it knows not to overlap.
func copyLine(dst, src []byte) {
	switch len(dst) {
	case LineSize:
		t := *(*[LineSize]byte)(src)
		*(*[LineSize]byte)(dst) = t
	case 8:
		*(*[8]byte)(dst) = *(*[8]byte)(src)
	default:
		copy(dst, src)
	}
}

// missLocked installs lineAddr, clean, in the replacement way of set si —
// the first empty way if any, otherwise the least recently used (strict <,
// walk order breaks ties) — writing the victim back first if it is dirty,
// and fills it from below if fill is set. It returns the way. Caller holds
// the set lock.
func (c *Cache) missLocked(clk *sim.Clock, sh *StatShard, si, lineAddr uint64, fill bool) int {
	blk, tags, lru := c.set(si)
	w, wlru := -1, uint64(0)
	for i, tag := range tags {
		if tag == 0 {
			w = i
			break
		}
		if w < 0 || lru[i]>>1 < wlru {
			w, wlru = i, lru[i]>>1
		}
	}
	if victim := tags[w]; victim != 0 {
		if c.faults != nil {
			c.faults.note(FaultEvict) // under the set lock: note only, no panic
		}
		if lru[w]&lruDirty != 0 {
			clk.Advance(c.cost.LineWriteback)
			c.lower.writeBackLine(clk, victim&^tagValid, c.line(si, w))
			sh.DirtyEvictions.Add(1)
			if c.hook != nil {
				c.hook(clk.ShardID(), FlushEvict, victim&^tagValid, clk.Nanos(), clk.Nanos())
			}
		} else {
			sh.CleanEvictions.Add(1)
		}
	}
	tags[w] = lineAddr | tagValid
	blk[setTick]++
	lru[w] = blk[setTick] << 1
	clk.Advance(c.cost.CacheMissLine)
	if fill {
		c.lower.fillLine(clk, lineAddr, c.line(si, w))
	}
	return w
}

// findHit returns the way holding lineAddr, or -1. Hits are the common
// case, so this is a bare compare per way over the contiguous tag array;
// the victim walk runs separately and only on misses.
func findHit(tags []uint64, lineAddr uint64) int {
	for w, tag := range tags {
		if tag == lineAddr|tagValid {
			return w
		}
	}
	return -1
}

// CLWB writes back the lines covering [addr, addr+n) if they are present and
// dirty, leaving them resident and clean — the semantics of the clwb
// instruction. The issue cost is charged per line regardless of residency;
// the paper's hinted flush (<sfence + clwb*>) does not stall for completion,
// so no completion wait is charged.
func (c *Cache) CLWB(clk *sim.Clock, addr uint64, n int) {
	if n <= 0 {
		return
	}
	c.checkRange(addr, n)
	sh := c.stats.ShardFor(clk)
	la, end := lineFloor(addr), addr+uint64(n)
	c.touch(la, end)
	for ; la < end; la += LineSize {
		c.flushLine(clk, sh, la, c.cost.ClwbIssue, FlushClwb)
	}
}

// flushLine is one line of a CLWB or of a flush train: a FaultFlush point,
// the issue cost, and the write-back if the line is resident and dirty.
func (c *Cache) flushLine(clk *sim.Clock, sh *StatShard, la, issue uint64, kind FlushKind) {
	if c.faults != nil {
		c.faults.note(FaultFlush)
		c.faults.check()
	}
	clk.Advance(issue)
	if kind == FlushTrain {
		sh.FlushTrainLines.Add(1)
	}
	si := c.setFor(la)
	blk, tags, lru := c.set(si)
	lockWord(&blk[setLock])
	if w := findHit(tags, la); w >= 0 && lru[w]&lruDirty != 0 {
		clk.Advance(c.cost.LineWriteback)
		c.lower.writeBackLine(clk, la, c.line(si, w))
		lru[w] &^= lruDirty
		sh.ClwbWritebacks.Add(1)
		if c.hook != nil {
			c.hook(clk.ShardID(), kind, la, clk.Nanos(), clk.Nanos())
		}
	}
	unlockWord(&blk[setLock])
	if c.faults != nil {
		c.faults.check() // drains noted under the bank lock
	}
}

// Span is one contiguous byte range of a flush train.
type Span struct {
	Off uint64
	N   int
}

// Lines returns the number of 64 B cache lines the span covers.
func (s Span) Lines() int {
	if s.N <= 0 {
		return 0
	}
	first := lineFloor(s.Off)
	last := lineFloor(s.Off + uint64(s.N) - 1)
	return int((last-first)/LineSize) + 1
}

// CLWBTrain writes back the lines covering each span as one hinted
// multi-line flush train: the leading line of every span charges the full
// ClwbIssue, each further adjacent line only ClwbTrainNext — the coalesced
// persistence primitive behind leader-based group commit. Per-line write-back
// semantics are identical to CLWB (dirty resident lines go down and stay
// resident clean), and every line remains an individual FaultFlush point so
// mid-train crash seeds fall out of the existing fault calibration.
func (c *Cache) CLWBTrain(clk *sim.Clock, spans []Span) {
	sh := c.stats.ShardFor(clk)
	trained := false
	for _, sp := range spans {
		if sp.N <= 0 {
			continue
		}
		c.checkRange(sp.Off, sp.N)
		trained = true
		la, end := lineFloor(sp.Off), sp.Off+uint64(sp.N)
		c.touch(la, end)
		issue := c.cost.ClwbIssue
		for ; la < end; la += LineSize {
			c.flushLine(clk, sh, la, issue, FlushTrain)
			issue = c.cost.ClwbTrainNext
		}
	}
	if trained {
		sh.FlushTrains.Add(1)
	}
}

// SFence charges the fence cost. Ordering itself needs no modelling: the
// simulation executes each worker's operations in program order.
func (c *Cache) SFence(clk *sim.Clock) { clk.Advance(c.cost.Sfence) }

// sweep visits every occupied way of every set under the set's lock: visit
// gets the line address, its payload and a pointer to its LRU word, and
// reports whether the line stays resident.
func (c *Cache) sweep(visit func(lineAddr uint64, data *[LineSize]byte, lru *uint64) (keep bool)) {
	for si := uint64(0); si < c.nsets; si++ {
		blk, tags, lru := c.set(si)
		lockWord(&blk[setLock])
		for w, tag := range tags {
			if tag != 0 && !visit(tag&^tagValid, c.line(si, w), &lru[w]) {
				tags[w] = 0
			}
		}
		unlockWord(&blk[setLock])
	}
}

// FlushAll writes back every dirty line (clean shutdown / sync point). Lines
// remain resident and clean.
func (c *Cache) FlushAll(clk *sim.Clock) {
	c.sweep(func(lineAddr uint64, data *[LineSize]byte, lru *uint64) bool {
		if *lru&lruDirty != 0 {
			c.lower.writeBackLine(clk, lineAddr, data)
			*lru &^= lruDirty
		}
		return true
	})
	c.lower.drain(clk)
}

// CrashFlush simulates a power failure. Under eADR every dirty line reaches
// the backend (the cache is in the persistence domain); under ADR dirty
// lines are lost. In both modes buffered controller state drains (the
// WPQ/XPBuffer is inside the ADR domain). The cache is left empty either way
// — a restarted system boots cold.
func (c *Cache) CrashFlush() {
	clk := sim.NewClock() // crash flushing is not charged to any worker
	c.crashWriteback(clk)
	c.lower.drain(clk)
}

// crashWriteback runs the persistence-domain line sweep of CrashFlush
// without the backend drain, so a fault plan can tear buffered blocks
// between the two steps (System.Crash).
func (c *Cache) crashWriteback(clk *sim.Clock) {
	sh := c.stats.ShardFor(clk)
	c.sweep(func(lineAddr uint64, data *[LineSize]byte, lru *uint64) bool {
		if *lru&lruDirty != 0 {
			if c.mode == EADR {
				c.lower.writeBackLine(clk, lineAddr, data)
				sh.CrashFlushedLines.Add(1)
			} else {
				sh.CrashDroppedLines.Add(1)
			}
		}
		return false
	})
}

// invalidateAll drops every resident line without writing anything back.
// Used when entering deterministic group mode: the device image has just
// been made authoritative (FlushAll), and any line left resident would go
// stale against the group's direct device writes.
func (c *Cache) invalidateAll() {
	c.sweep(func(uint64, *[LineSize]byte, *uint64) bool { return false })
}
