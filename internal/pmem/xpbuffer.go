package pmem

import (
	"math/bits"

	"falcon/internal/sim"
)

// XPBuffer models the write-combining buffer inside an Optane NVM module
// (paper §3.2, Figure 2). Incoming 64 B cache-line write-backs are staged in
// 256 B block slots. If neighbouring lines of the same block arrive while the
// slot is still resident, they merge and the eventual media write is a single
// full-block write. If a slot is evicted while only partially populated, the
// controller must read the block from the media, merge, and write it back —
// the read-modify-write amplification the paper's hinted flush avoids.
//
// The buffer is banked by block address so concurrent workers contend only
// when they touch nearby blocks, loosely modelling per-DIMM controllers.
type XPBuffer struct {
	dev   *Device
	cost  sim.CostModel
	banks []xpBank
	// faults, when non-nil, counts slot evictions for crash injection (see
	// FaultPlan). The buffer only notes events — it always runs under a bank
	// lock, so the panic fires later at a lock-free point in the cache.
	faults *FaultPlan
	// hook, when non-nil, receives every slot eviction (see FlushFn). The
	// unarmed fast path pays one pointer test per eviction.
	hook FlushFn
	// dataless marks a timing-only buffer (deterministic group mode): slot
	// occupancy, merge accounting and media-cost charging run as usual, but
	// no payload bytes are staged and — critically — evictions never write
	// to the device. In group mode the device bytes are maintained directly
	// by the space; a stale staged payload flushing over them would corrupt
	// the authoritative image, and the read-modify-write media read of a
	// partial eviction would race other workers' direct device writes.
	dataless bool
}

// xpSlot is the per-slot state the bank walks: LRU links, block address and
// valid-line mask. Payloads live apart in xpBank.data, so an LRU relink —
// which touches up to three other slots — stays within a few host lines.
type xpSlot struct {
	blockAddr uint64
	// LRU list links (indexes into the bank's slot array; -1 = none). The
	// next link doubles as the free-list link while the slot is unused.
	prev, next int32
	mask       uint8 // bit i set => line i of the block holds valid data
	used       bool
}

// xpBlock is one slot's payload, line by line.
type xpBlock [LinesPerBlock][LineSize]byte

// xpBank is padded to two host cache lines: its lock and list heads are
// written on every access, and adjacent banks belong to different workers.
type xpBank struct {
	mu    uint64 // lockWord/unlockWord
	slots []xpSlot
	data  []xpBlock // payload of each slot; nil in a dataless buffer
	index xpIndex   // blockAddr -> slot
	head  int32     // most recently used
	tail  int32     // least recently used
	free  int32     // head of the unused-slot list (-1 = bank full)
	_     [24]byte
}

// xpIndex maps the block addresses buffered in one bank to their slots: an
// open-addressed, linearly probed table sized at construction to stay at
// most half full (a bank never holds more keys than it has slots). A lookup
// is a multiply and a compare or two over adjacent entries — no runtime map
// call on every write-back, no assign/delete churn on every eviction.
type xpIndex struct {
	ents  []xpEnt // power-of-two length
	shift uint8   // 64 - log2(len(ents))
}

type xpEnt struct {
	key  uint64 // blockAddr | xpEntUsed; 0 = empty
	slot int32
}

// xpEntUsed marks an occupied entry (block addresses have their low bits
// clear, and block 0 is a valid key).
const xpEntUsed = 1

func newXPIndex(slots int) xpIndex {
	n := 2
	for n < 2*slots {
		n <<= 1
	}
	return xpIndex{ents: make([]xpEnt, n), shift: uint8(64 - bits.TrailingZeros(uint(n)))}
}

// home is the first entry probed for key.
func (x *xpIndex) home(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> x.shift }

// get returns the slot holding blockAddr, or -1.
func (x *xpIndex) get(blockAddr uint64) int32 {
	key, mask := blockAddr|xpEntUsed, uint64(len(x.ents)-1)
	for i := x.home(key); ; i = (i + 1) & mask {
		switch x.ents[i].key {
		case key:
			return x.ents[i].slot
		case 0:
			return -1
		}
	}
}

// put adds blockAddr, which must be absent.
func (x *xpIndex) put(blockAddr uint64, slot int32) {
	key, mask := blockAddr|xpEntUsed, uint64(len(x.ents)-1)
	i := x.home(key)
	for x.ents[i].key != 0 {
		i = (i + 1) & mask
	}
	x.ents[i] = xpEnt{key, slot}
}

// del removes blockAddr if present, shifting later entries of the probe run
// back over the hole (no tombstones): an entry moves into the hole unless
// its home lies cyclically after the hole, so every remaining key stays
// reachable from its home without crossing an empty entry.
func (x *xpIndex) del(blockAddr uint64) {
	key, mask := blockAddr|xpEntUsed, uint64(len(x.ents)-1)
	i := x.home(key)
	for x.ents[i].key != key {
		if x.ents[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.ents[j].key != 0; j = (j + 1) & mask {
		if (j-x.home(x.ents[j].key))&mask >= (j-i)&mask {
			x.ents[i] = x.ents[j]
			i = j
		}
	}
	x.ents[i] = xpEnt{}
}

// NewXPBuffer creates a buffer with the given total capacity in bytes spread
// over nbanks banks. Capacity is rounded so each bank holds at least one
// slot. A dataless buffer (see XPBuffer.dataless) allocates no payloads.
func NewXPBuffer(dev *Device, capacityBytes, nbanks int, cost sim.CostModel, dataless bool) *XPBuffer {
	if nbanks < 1 {
		nbanks = 1
	}
	slotsPerBank := capacityBytes / BlockSize / nbanks
	if slotsPerBank < 1 {
		slotsPerBank = 1
	}
	b := &XPBuffer{dev: dev, cost: cost, banks: make([]xpBank, nbanks), dataless: dataless}
	for i := range b.banks {
		bank := &b.banks[i]
		bank.slots = make([]xpSlot, slotsPerBank)
		if !dataless {
			bank.data = make([]xpBlock, slotsPerBank)
		}
		bank.index = newXPIndex(slotsPerBank)
		bank.head, bank.tail = -1, -1
		// Chain all slots onto the free list through their next links.
		bank.free = 0
		for j := range bank.slots {
			bank.slots[j].prev = -1
			bank.slots[j].next = int32(j + 1)
		}
		bank.slots[slotsPerBank-1].next = -1
	}
	return b
}

func (b *XPBuffer) bankFor(blockAddr uint64) *xpBank {
	return &b.banks[(blockAddr/BlockSize)%uint64(len(b.banks))]
}

// WriteLine accepts one dirty 64 B line written back from the CPU cache and
// stages it in the buffer, evicting a victim block to the media if the bank
// is full. Costs are charged to clk (which may be nil during crash flushes).
func (b *XPBuffer) WriteLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	blockAddr := blockFloor(lineAddr)
	lineIdx := int(lineAddr-blockAddr) / LineSize
	bank := b.bankFor(blockAddr)
	sh := b.dev.stats.ShardFor(clk)

	lockWord(&bank.mu)

	si := bank.index.get(blockAddr)
	if si >= 0 {
		s := &bank.slots[si]
		if s.mask&(1<<lineIdx) == 0 {
			s.mask |= 1 << lineIdx
			sh.XPBufferMerges.Add(1)
		}
		bank.touch(si)
	} else {
		si = bank.takeFreeSlot()
		if si < 0 {
			b.evictSlotLocked(clk, sh, bank, bank.tail)
			// evictSlotLocked pushed the slot back on the free list; reclaim it.
			si = bank.takeFreeSlot()
		}
		s := &bank.slots[si]
		s.blockAddr = blockAddr
		s.mask = 1 << lineIdx
		s.used = true
		bank.index.put(blockAddr, si)
		bank.pushFront(si)
	}
	if !b.dataless {
		bank.data[si][lineIdx] = *data
	}
	unlockWord(&bank.mu)
}

// ReadLine fills dst with the current content of the 64 B line at lineAddr,
// preferring buffered data over the media. It reports whether the XPBuffer
// had the line (so the caller can charge XPBufferHit instead of a media
// read).
func (b *XPBuffer) ReadLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) (fromBuffer bool) {
	blockAddr := blockFloor(lineAddr)
	lineIdx := int(lineAddr-blockAddr) / LineSize
	bank := b.bankFor(blockAddr)
	sh := b.dev.stats.ShardFor(clk)

	lockWord(&bank.mu)
	if si := bank.index.get(blockAddr); si >= 0 && bank.slots[si].mask&(1<<lineIdx) != 0 {
		if !b.dataless {
			*dst = bank.data[si][lineIdx]
		}
		unlockWord(&bank.mu)
		sh.XPBufferHits.Add(1)
		clk.Advance(b.cost.XPBufferHit)
		return true
	}
	// The media read happens under the bank lock, like evictions' media
	// writes, so a fill can never observe a torn concurrent write-back.
	// Dataless buffers charge the read without touching device bytes (the
	// caller reads data straight from the device; see XPBuffer.dataless).
	if !b.dataless {
		b.dev.readLineInto(lineAddr, dst)
	}
	unlockWord(&bank.mu)
	sh.MediaReads.Add(1)
	clk.Advance(b.cost.MediaReadBlock)
	return false
}

// evictSlotLocked writes the victim slot out to the media and returns it to
// the bank's free list. Full blocks cost a single media write; partial
// blocks cost a read-modify-write.
func (b *XPBuffer) evictSlotLocked(clk *sim.Clock, sh *StatShard, bank *xpBank, si int32) {
	s := &bank.slots[si]
	if !s.used {
		return
	}
	if b.faults != nil {
		b.faults.note(FaultDrain) // under the bank lock: note only
	}
	evStart := clk.Nanos()
	full := s.mask == (1<<LinesPerBlock)-1
	if full {
		sh.FullBlockWrites.Add(1)
	} else {
		// Read-modify-write: fetch the block, merge the valid lines, write
		// the whole block back.
		sh.MediaReads.Add(1)
		clk.Advance(b.cost.MediaReadBlock)
		sh.PartialBlockWrites.Add(1)
	}
	if !b.dataless {
		b.dev.writeLines(s.blockAddr, &bank.data[si], s.mask)
	}
	sh.MediaWrites.Add(1)
	sh.BytesToMedia.Add(BlockSize)
	clk.Advance(b.cost.MediaWriteBlock)
	if b.hook != nil {
		kind := FlushXPFull
		if !full {
			kind = FlushXPPartial
		}
		b.hook(clk.ShardID(), kind, s.blockAddr, evStart, clk.Nanos())
	}

	bank.release(si)
}

// Drain writes every buffered block to the media. The memory controller is
// inside the persistence domain in both ADR and eADR, so Drain runs on every
// simulated crash; it is also used by Sync for clean shutdowns.
func (b *XPBuffer) Drain(clk *sim.Clock) {
	sh := b.dev.stats.ShardFor(clk)
	for i := range b.banks {
		bank := &b.banks[i]
		lockWord(&bank.mu)
		for bank.tail != -1 {
			b.evictSlotLocked(clk, sh, bank, bank.tail)
		}
		unlockWord(&bank.mu)
	}
}

// tearOne simulates a torn 256 B media write at crash time: one buffered
// block loses a pseudo-random nonempty subset of its valid lines before the
// crash drain. The lost lines keep their previous durable content on the
// media — line-granular tearing, the failure mode of a block write
// interrupted mid-transfer. Candidate selection is deterministic (banks and
// slots in index order) so a seed reproduces the same tear.
func (b *XPBuffer) tearOne(p *FaultPlan) {
	type cand struct {
		bank *xpBank
		si   int32
	}
	var cands []cand
	for i := range b.banks {
		bank := &b.banks[i]
		for si := range bank.slots {
			if bank.slots[si].used {
				cands = append(cands, cand{bank, int32(si)})
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	state := p.Seed ^ 0x7ea4
	c := cands[rng(&state)%uint64(len(cands))]
	s := &c.bank.slots[c.si]
	drop := uint8(rng(&state)) & s.mask
	if drop == 0 {
		drop = s.mask & (^s.mask + 1) // lowest valid line
	}
	s.mask &^= drop
	if s.mask == 0 {
		c.bank.release(c.si)
	}
}

// backend interface adapters (see cache.go).

func (b *XPBuffer) writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	b.WriteLine(clk, lineAddr, data)
}

func (b *XPBuffer) fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) {
	b.ReadLine(clk, lineAddr, dst)
}

func (b *XPBuffer) drain(clk *sim.Clock) { b.Drain(clk) }

// ---- bank LRU / free-list helpers (caller holds bank.mu) ----

// takeFreeSlot pops the free-list head, replacing the former O(slots) scan
// for an unused slot with a constant-time unlink.
func (k *xpBank) takeFreeSlot() int32 {
	si := k.free
	if si >= 0 {
		k.free = k.slots[si].next
		k.slots[si].next = -1
	}
	return si
}

// release empties slot si: out of the index and the LRU list, onto the free
// list.
func (k *xpBank) release(si int32) {
	s := &k.slots[si]
	k.index.del(s.blockAddr)
	k.unlink(si)
	s.used = false
	s.mask = 0
	s.next = k.free
	k.free = si
}

func (k *xpBank) pushFront(si int32) {
	s := &k.slots[si]
	s.prev = -1
	s.next = k.head
	if k.head != -1 {
		k.slots[k.head].prev = si
	}
	k.head = si
	if k.tail == -1 {
		k.tail = si
	}
}

func (k *xpBank) unlink(si int32) {
	s := &k.slots[si]
	if s.prev != -1 {
		k.slots[s.prev].next = s.next
	} else if k.head == si {
		k.head = s.next
	}
	if s.next != -1 {
		k.slots[s.next].prev = s.prev
	} else if k.tail == si {
		k.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (k *xpBank) touch(si int32) {
	if k.head == si {
		return
	}
	k.unlink(si)
	k.pushFront(si)
}
