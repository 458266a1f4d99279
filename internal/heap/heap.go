// Package heap implements the in-NVM tuple heap (paper §5.1). All tuples
// live in a fixed-stride slot array on the simulated persistent space. The
// same layout serves both update disciplines:
//
//   - in-place engines keep exactly one slot per logical tuple and overwrite
//     fields through the cache;
//   - out-of-place engines allocate a fresh slot per update (the new version)
//     and invalidate the predecessor.
//
// Slots are partitioned statically across worker threads; each thread
// allocates from its own range with a persistent bump cursor and recycles
// from a persistent per-thread deleted list, exactly as described in §5.4
// (the deleted list is threaded through the slot headers in NVM so it
// survives crashes under persistent cache).
//
// Concurrency-control metadata (lock word, read timestamp) is kept in a
// native shadow array: logically it is the paper's 8-byte metadata field
// inside the tuple, but it must support host-atomic CAS, which the simulated
// cache cannot provide. The shadow is identical for every engine under test
// and is reinitialized on recovery (the paper's "clear the lock bits" step).
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

const (
	heapMagic = 0xFA1C04EA_90000002 // 2: header padded to a media block

	// header field offsets within the 64-byte global header
	hdrMagic    = 0
	hdrSlotSize = 8  // u32 payload bytes
	hdrStride   = 12 // u32 slot stride
	hdrNSlots   = 16 // u64
	hdrNThreads = 24 // u32

	// per-thread block (64 bytes each, after the global header)
	thrCursor  = 0 // u64: next never-allocated slot in the thread's range
	thrDelHead = 8 // u64: slot+1 of the head of the deleted list, 0 = nil
	thrDelTail = 16

	// slot header: [0:8] write timestamp, [8:16] flags+link word
	slotHdrBytes = 16

	// flags word layout: low 8 bits flags, bits 8..63 next-deleted link
	// (slot+1).

	// FlagOccupied marks an ever-populated slot.
	FlagOccupied = 1 << 0
	// FlagDeleted marks a deleted tuple awaiting recycling.
	FlagDeleted = 1 << 1
	// FlagInvalidated marks a superseded out-of-place version.
	FlagInvalidated = 1 << 2
)

// ErrHeapFull is returned when a thread's slot range and deleted list are
// both exhausted.
var ErrHeapFull = errors.New("heap: no free slots for thread")

// ErrReclaimPending is returned when free slots exist but are still inside
// some running transaction's visibility horizon. Callers should treat it as
// a transient conflict (abort and retry) — backpressure, not capacity
// exhaustion.
var ErrReclaimPending = errors.New("heap: free slots pending reclaim")

// Config sizes a new heap.
type Config struct {
	// SlotSize is the tuple payload width in bytes.
	SlotSize int
	// NSlots is the total slot count, split evenly across threads.
	NSlots uint64
	// NThreads is the number of worker threads owning slot ranges.
	NThreads int
}

// Heap is a tuple heap over a persistent (or DRAM) space.
type Heap struct {
	space pmem.Space
	base  uint64

	slotSize  int
	stride    uint64
	nslots    uint64
	nthreads  int
	perThread uint64
	slotsBase uint64

	meta []slotMeta
	// listMu serializes each thread's allocation cursor and deleted list:
	// transactions retire superseded versions to the slot owner's list,
	// which may be another thread's.
	listMu []sync.Mutex
	// free mirrors the persistent deleted lists in DRAM, carrying the
	// reclaim horizon for each entry. The horizon is a FRESH timestamp
	// drawn when the slot is linked — not the retiring transaction's TID —
	// because a concurrent reader that resolved the slot through the index
	// may carry a TID larger than the retiring transaction's. Any such
	// reader began before the link, so its TID is below the fresh
	// timestamp, and the slot stays unreclaimed until that reader is gone.
	free [][]freeEntry
}

type freeEntry struct {
	slot uint64
	ts   uint64 // reclaim horizon; 0 = immediately reclaimable
}

type slotMeta struct {
	lock   atomic.Uint64 // CC word; interpretation is up to the CC algorithm
	readTS atomic.Uint64
}

// BytesNeeded returns the persistent footprint of a heap with cfg,
// accounting for the rounding of NSlots to a thread multiple that New
// performs.
func BytesNeeded(cfg Config) uint64 {
	stride := SlotStride(cfg.SlotSize)
	return headerBytes(cfg.NThreads) + stride*roundSlots(cfg.NSlots, cfg.NThreads)
}

// roundSlots pads the slot count to a multiple of the thread count so the
// per-thread ranges are equal.
func roundSlots(n uint64, threads int) uint64 {
	if threads <= 0 {
		return n
	}
	if rem := n % uint64(threads); rem != 0 {
		n += uint64(threads) - rem
	}
	return n
}

// SlotStride is the bytes a slot of a slotSize-byte tuple spans: the tuple
// after its slot header, rounded up to whole lines.
func SlotStride(slotSize int) uint64 {
	return (uint64(slotSize) + slotHdrBytes + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
}

// headerBytes is the 64 B global header and one 64 B block per thread,
// rounded up to a whole media block so that slot 0 starts on one: a slot whose
// stride is a multiple of the block then spans whole blocks (DESIGN.md §3).
func headerBytes(nthreads int) uint64 {
	return (64 + 64*uint64(nthreads) + pmem.BlockSize - 1) &^ (pmem.BlockSize - 1)
}

// New formats a heap at base in space. The region [base, base+BytesNeeded)
// must be owned by the caller. Initial contents are installed with BulkWrite
// (zeroed slots), matching a freshly created database file.
func New(space pmem.Space, base uint64, cfg Config) (*Heap, error) {
	if cfg.SlotSize <= 0 || cfg.NSlots == 0 || cfg.NThreads <= 0 {
		return nil, fmt.Errorf("heap: bad config %+v", cfg)
	}
	cfg.NSlots = roundSlots(cfg.NSlots, cfg.NThreads)
	h := &Heap{
		space:     space,
		base:      base,
		slotSize:  cfg.SlotSize,
		stride:    SlotStride(cfg.SlotSize),
		nslots:    cfg.NSlots,
		nthreads:  cfg.NThreads,
		perThread: cfg.NSlots / uint64(cfg.NThreads),
	}
	h.slotsBase = base + headerBytes(cfg.NThreads)
	if h.slotsBase+h.stride*h.nslots > space.Size() {
		return nil, fmt.Errorf("heap: region at %d overflows space (%d slots of stride %d)", base, h.nslots, h.stride)
	}
	h.meta = make([]slotMeta, h.nslots)
	h.listMu = make([]sync.Mutex, cfg.NThreads)
	h.free = make([][]freeEntry, cfg.NThreads)

	var hdr [64]byte
	binary.LittleEndian.PutUint64(hdr[hdrMagic:], heapMagic)
	binary.LittleEndian.PutUint32(hdr[hdrSlotSize:], uint32(h.slotSize))
	binary.LittleEndian.PutUint32(hdr[hdrStride:], uint32(h.stride))
	binary.LittleEndian.PutUint64(hdr[hdrNSlots:], h.nslots)
	binary.LittleEndian.PutUint32(hdr[hdrNThreads:], uint32(h.nthreads))
	space.BulkWrite(base, hdr[:])
	for t := 0; t < h.nthreads; t++ {
		var blk [64]byte
		binary.LittleEndian.PutUint64(blk[thrCursor:], uint64(t)*h.perThread)
		space.BulkWrite(h.thrOff(t), blk[:])
	}
	return h, nil
}

// Open reattaches to a heap previously formatted at base (recovery). Shadow
// CC metadata is reset — the "clear lock bits" step of recovery.
func Open(space pmem.Space, clk *sim.Clock, base uint64) (*Heap, error) {
	var hdr [64]byte
	space.Read(clk, base, hdr[:])
	if binary.LittleEndian.Uint64(hdr[hdrMagic:]) != heapMagic {
		return nil, errors.New("heap: no heap header at base")
	}
	h := &Heap{
		space:    space,
		base:     base,
		slotSize: int(binary.LittleEndian.Uint32(hdr[hdrSlotSize:])),
		stride:   uint64(binary.LittleEndian.Uint32(hdr[hdrStride:])),
		nslots:   binary.LittleEndian.Uint64(hdr[hdrNSlots:]),
		nthreads: int(binary.LittleEndian.Uint32(hdr[hdrNThreads:])),
	}
	h.perThread = h.nslots / uint64(h.nthreads)
	h.slotsBase = base + headerBytes(h.nthreads)
	h.meta = make([]slotMeta, h.nslots)
	h.listMu = make([]sync.Mutex, h.nthreads)
	h.free = make([][]freeEntry, h.nthreads)
	// Rebuild the DRAM free mirror from the durable lists. Horizons reset
	// to zero: after a crash no transaction can hold stale references.
	// Under ADR the list head/tail words and the per-slot link words are
	// cached state that may be stale or torn on the media, so the walk is
	// defensive: an out-of-range link or a list longer than the thread's
	// slot range (a cycle) terminates the walk instead of looping or
	// mirroring garbage. Out-of-place recovery additionally discards these
	// lists wholesale and rebuilds them from the heap scan.
	for t := 0; t < h.nthreads; t++ {
		for link := h.readThr(clk, t, thrDelHead); link != 0; {
			slot := link - 1
			if slot >= h.nslots || uint64(len(h.free[t])) >= h.perThread {
				break
			}
			h.free[t] = append(h.free[t], freeEntry{slot: slot})
			link = h.readFlagsWord(clk, slot) >> 8
		}
	}
	return h, nil
}

// ---- geometry ----

// NSlots returns the slot capacity.
func (h *Heap) NSlots() uint64 { return h.nslots }

// SlotSize returns the payload width.
func (h *Heap) SlotSize() int { return h.slotSize }

// NThreads returns the owning thread count.
func (h *Heap) NThreads() int { return h.nthreads }

// Owner returns the thread that owns slot's range.
func (h *Heap) Owner(slot uint64) int { return int(slot / h.perThread) }

// Bytes returns the persistent footprint.
func (h *Heap) Bytes() uint64 { return headerBytes(h.nthreads) + h.stride*h.nslots }

func (h *Heap) thrOff(t int) uint64        { return h.base + 64 + 64*uint64(t) }
func (h *Heap) slotOff(slot uint64) uint64 { return h.slotsBase + slot*h.stride }

// PayloadAddr returns the absolute space offset of the slot's payload, used
// for hinted flushes and diagnostics.
func (h *Heap) PayloadAddr(slot uint64) uint64 { return h.slotOff(slot) + slotHdrBytes }

// Meta returns the shadow CC metadata words for slot.
func (h *Heap) Meta(slot uint64) (lock, readTS *atomic.Uint64) {
	m := &h.meta[slot]
	return &m.lock, &m.readTS
}

// ---- persistent slot access ----

// WriteTS durably records the writer timestamp of slot.
func (h *Heap) WriteTS(clk *sim.Clock, slot uint64, ts uint64) {
	h.space.WriteU64(clk, h.slotOff(slot), ts)
}

// ReadTS reads the durable writer timestamp of slot.
func (h *Heap) ReadTS(clk *sim.Clock, slot uint64) uint64 {
	return h.space.ReadU64(clk, h.slotOff(slot))
}

// ReadFlags returns the flags byte of slot (low bits of the flags word).
func (h *Heap) ReadFlags(clk *sim.Clock, slot uint64) uint8 {
	return uint8(h.space.ReadU64(clk, h.slotOff(slot)+8) & 0xFF)
}

func (h *Heap) writeFlagsWord(clk *sim.Clock, slot uint64, w uint64) {
	h.space.WriteU64(clk, h.slotOff(slot)+8, w)
}

func (h *Heap) readFlagsWord(clk *sim.Clock, slot uint64) uint64 {
	return h.space.ReadU64(clk, h.slotOff(slot)+8)
}

// Publish fills a slot no reader or recovery scan takes for live yet with
// payload under writer timestamp ts, as whole lines in two stores: lines 1…
// (the payload past its first 48 bytes, zero-padded to the stride), then line
// 0 alone ([ts, FlagOccupied, payload[:48]]). A store that covers a line needs
// no fill, so no line of the dead slot is read from the media; the flag lands
// after the payload and together with the timestamp. *img holds the line
// image, grown here and kept by the caller: a buffer handed to Space.Write
// escapes, so a local one would be allocated on every call.
func (h *Heap) Publish(clk *sim.Clock, slot, ts uint64, payload []byte, img *[]byte) {
	if uint64(cap(*img)) < h.stride {
		*img = make([]byte, h.stride)
	}
	b := (*img)[:h.stride]
	binary.LittleEndian.PutUint64(b, ts)
	binary.LittleEndian.PutUint64(b[8:], FlagOccupied)
	clear(b[slotHdrBytes+copy(b[slotHdrBytes:], payload[:h.slotSize]):])
	if h.stride > pmem.LineSize {
		h.space.Write(clk, h.slotOff(slot)+pmem.LineSize, b[pmem.LineSize:])
	}
	h.space.Write(clk, h.slotOff(slot), b[:pmem.LineSize])
}

// ReadPayload copies the whole tuple payload into dst (len >= SlotSize).
func (h *Heap) ReadPayload(clk *sim.Clock, slot uint64, dst []byte) {
	h.space.Read(clk, h.PayloadAddr(slot), dst[:h.slotSize])
}

// ReadRange copies payload bytes [off, off+len(dst)).
func (h *Heap) ReadRange(clk *sim.Clock, slot uint64, off int, dst []byte) {
	h.space.Read(clk, h.PayloadAddr(slot)+uint64(off), dst)
}

// ReadRangeU64 reads the little-endian word at payload offset off — the
// scratch-free form of an 8-byte ReadRange (key and secondary-key probes).
func (h *Heap) ReadRangeU64(clk *sim.Clock, slot uint64, off int) uint64 {
	return h.space.ReadU64(clk, h.PayloadAddr(slot)+uint64(off))
}

// WritePayload overwrites the whole payload.
func (h *Heap) WritePayload(clk *sim.Clock, slot uint64, src []byte) {
	h.space.Write(clk, h.PayloadAddr(slot), src[:h.slotSize])
}

// WriteRange overwrites payload bytes [off, off+len(src)) — an in-place
// field update.
func (h *Heap) WriteRange(clk *sim.Clock, slot uint64, off int, src []byte) {
	h.space.Write(clk, h.PayloadAddr(slot)+uint64(off), src)
}

// CLWBSlot issues write-back hints for the slot header and payload range
// [off, off+n), each line once. Part of the hinted flush: the caller issues
// SFence first. A range from the payload's start goes back in Publish's order,
// line 0 last, so under ADR too the flag of a flushed slot never reaches the
// media before its payload. Any other range belongs to a live slot whose
// committed record replays over it: one that starts in line 0 goes back with
// the header in one ascending pass, one past line 0 after the header line,
// which carries the durable ts. It returns the number of lines hinted.
func (h *Heap) CLWBSlot(clk *sim.Clock, slot uint64, off, n int) (lines int) {
	hdr, start := h.slotOff(slot), h.PayloadAddr(slot)+uint64(off)
	end := start + uint64(n)
	switch {
	case start >= hdr+pmem.LineSize:
		h.space.CLWB(clk, hdr, slotHdrBytes)
		h.space.CLWB(clk, start, n)
		return 1 + pmem.Span{Off: start, N: n}.Lines()
	case off > 0:
		h.space.CLWB(clk, hdr, int(end-hdr))
	default:
		if end > hdr+pmem.LineSize {
			h.space.CLWB(clk, hdr+pmem.LineSize, int(end-hdr-pmem.LineSize))
		}
		h.space.CLWB(clk, hdr, slotHdrBytes)
	}
	return pmem.Span{Off: hdr, N: int(end - hdr)}.Lines()
}

// FlushSpans appends the byte ranges CLWBSlot would flush for (slot, off, n)
// without issuing the write-backs — group commit collects them into the
// epoch seal's flush trains instead of flushing per commit. The spans ascend
// and cover each line once: the seal trains the data after its epoch's marker
// (§8 of DESIGN.md), so a crash inside a train leaves records that replay over
// the slot.
func (h *Heap) FlushSpans(slot uint64, off, n int, spans []pmem.Span) []pmem.Span {
	hdr, start := h.slotOff(slot), h.PayloadAddr(slot)+uint64(off)
	end := start + uint64(n)
	if start >= hdr+pmem.LineSize {
		spans = append(spans, pmem.Span{Off: hdr, N: slotHdrBytes})
	} else {
		start = hdr // the range shares line 0 with the header
	}
	return append(spans, pmem.Span{Off: start, N: int(end - start)})
}

// BulkInstall writes a tuple during initial load, bypassing simulation.
// Loaders should pass ts 0 so recovery classifies the tuple as committed
// regardless of per-thread commit markers.
func (h *Heap) BulkInstall(slot uint64, ts uint64, payload []byte) {
	h.space.BulkWriteU64(h.slotOff(slot), ts)
	h.space.BulkWriteU64(h.slotOff(slot)+8, FlagOccupied)
	h.space.BulkWrite(h.PayloadAddr(slot), payload[:h.slotSize])
}

// ---- allocation ----

// readThr / writeThr access a field in the per-thread persistent block.
func (h *Heap) readThr(clk *sim.Clock, t int, field uint64) uint64 {
	return h.space.ReadU64(clk, h.thrOff(t)+field)
}

func (h *Heap) writeThr(clk *sim.Clock, t int, field uint64, v uint64) {
	h.space.WriteU64(clk, h.thrOff(t)+field, v)
}

// Alloc returns a free slot for thread t. It prefers the head of the
// thread's deleted list when that tuple's deletion timestamp is older than
// minActive (no running transaction can still see it); otherwise it bumps
// the thread's cursor. minActive may be 0 to disable recycling.
func (h *Heap) Alloc(clk *sim.Clock, t int, minActive uint64) (uint64, error) {
	h.listMu[t].Lock()
	defer h.listMu[t].Unlock()
	if len(h.free[t]) > 0 && minActive != 0 {
		e := h.free[t][0]
		if e.ts < minActive {
			h.free[t] = h.free[t][1:]
			// Keep the durable list in sync: pop its head too.
			w := h.readFlagsWord(clk, e.slot)
			next := w >> 8
			h.writeThr(clk, t, thrDelHead, next)
			if next == 0 {
				h.writeThr(clk, t, thrDelTail, 0)
			}
			h.writeFlagsWord(clk, e.slot, 0)
			return e.slot, nil
		}
		// Head not yet reclaimable; entries are horizon-ordered (the
		// horizon clock is monotone), so no later entry is either.
	}
	cur := h.readThr(clk, t, thrCursor)
	limit := (uint64(t) + 1) * h.perThread
	if cur >= limit {
		if len(h.free[t]) > 0 {
			return 0, fmt.Errorf("%w (thread %d, %d pending)", ErrReclaimPending, t, len(h.free[t]))
		}
		return 0, fmt.Errorf("%w %d", ErrHeapFull, t)
	}
	h.writeThr(clk, t, thrCursor, cur+1)
	return cur, nil
}

// MarkDeleted durably records that slot was deleted at ts, without linking
// it for recycling. Out-of-place engines use the flag + timestamp as their
// durable delete record ahead of the commit marker; linking happens after.
// Like every change of timestamp and flags, it is one 16 B store: torn, the
// deleter's TID over a live flag would read after a crash as an uncommitted
// new version, and recovery would roll a committed row back.
func (h *Heap) MarkDeleted(clk *sim.Clock, slot uint64, ts uint64) {
	h.space.WriteU64Pair(clk, h.slotOff(slot), ts, FlagOccupied|FlagDeleted)
}

// MarkInvalidated durably records, after the commit marker, that slot's
// version was superseded at ts. A crash leaves it live with its own timestamp
// (the newest-version scan prefers the new version) or dead; torn with ts
// first, it would be a second live version carrying the new version's TID.
func (h *Heap) MarkInvalidated(clk *sim.Clock, slot uint64, ts uint64) {
	h.space.WriteU64Pair(clk, h.slotOff(slot), ts, FlagOccupied|FlagInvalidated)
}

// ClearDeleted rolls back an uncommitted delete record (recovery only),
// restamping the version with ts: the deleter's TID it carries is above its
// writer's commit marker, and a second crash would read it as uncommitted.
func (h *Heap) ClearDeleted(clk *sim.Clock, slot uint64, ts uint64) {
	h.space.WriteU64Pair(clk, h.slotOff(slot), ts, FlagOccupied)
}

// Link appends an already-marked slot to its owner's deleted list for
// recycling, with the given reclaim horizon: the slot is handed out again
// only once every running transaction's TID exceeds reclaimTS. The list is
// appended at the tail so it stays horizon-ordered (§5.4). Safe for
// cross-thread use.
func (h *Heap) Link(clk *sim.Clock, slot uint64, reclaimTS uint64) {
	t := h.Owner(slot)
	h.listMu[t].Lock()
	defer h.listMu[t].Unlock()
	if tail := h.readThr(clk, t, thrDelTail); tail != 0 {
		prev := tail - 1
		w := h.readFlagsWord(clk, prev)
		h.writeFlagsWord(clk, prev, (w&0xFF)|((slot+1)<<8))
	} else {
		h.writeThr(clk, t, thrDelHead, slot+1)
	}
	h.writeThr(clk, t, thrDelTail, slot+1)
	h.free[t] = append(h.free[t], freeEntry{slot: slot, ts: reclaimTS})
}

// Retire marks slot deleted (or invalidated) with durable timestamp ts and
// links it with reclaim horizon reclaimTS (pass a freshly drawn TID during
// normal operation; 0 during recovery or for never-published slots).
func (h *Heap) Retire(clk *sim.Clock, slot uint64, ts, reclaimTS uint64, invalidated bool) {
	if invalidated {
		h.MarkInvalidated(clk, slot, ts)
	} else {
		h.MarkDeleted(clk, slot, ts)
	}
	h.Link(clk, slot, reclaimTS)
}

// FreeStats reports, for diagnostics, each thread's free-list length and
// head horizon.
func (h *Heap) FreeStats() (lens []int, heads []uint64) {
	for t := 0; t < h.nthreads; t++ {
		h.listMu[t].Lock()
		lens = append(lens, len(h.free[t]))
		if len(h.free[t]) > 0 {
			heads = append(heads, h.free[t][0].ts)
		} else {
			heads = append(heads, 0)
		}
		h.listMu[t].Unlock()
	}
	return
}

// IsDeleted reports the deleted flag.
func (h *Heap) IsDeleted(clk *sim.Clock, slot uint64) bool {
	return h.ReadFlags(clk, slot)&FlagDeleted != 0
}

// Scan invokes fn for every ever-allocated slot (below its thread's cursor),
// passing the durable ts and flags and the payload. It charges full read
// traffic — this is the expensive, heap-size-proportional operation that
// out-of-place engines must run during recovery to rebuild their DRAM index.
func (h *Heap) Scan(clk *sim.Clock, fn func(slot uint64, ts uint64, flags uint8, payload []byte)) {
	for t := 0; t < h.nthreads; t++ {
		h.scanRange(clk, uint64(t)*h.perThread, h.readThr(clk, t, thrCursor), fn)
	}
}

// ScanAll is Scan over each thread's entire slot range, ignoring the
// allocation cursors. The cursors are written through the cache and never
// flushed on the hot path, so after an ADR crash they can revert to a stale
// value — a cursor-bounded scan would then miss durably committed versions
// past the stale cursor. Crash recovery scans the whole heap (the paper's
// §6.5 full-scan recovery) and repairs the cursors with EnsureCursorPast.
func (h *Heap) ScanAll(clk *sim.Clock, fn func(slot uint64, ts uint64, flags uint8, payload []byte)) {
	for t := 0; t < h.nthreads; t++ {
		h.scanRange(clk, uint64(t)*h.perThread, (uint64(t)+1)*h.perThread, fn)
	}
}

func (h *Heap) scanRange(clk *sim.Clock, lo, hi uint64, fn func(slot uint64, ts uint64, flags uint8, payload []byte)) {
	buf := make([]byte, h.slotSize)
	var hdr [16]byte
	for slot := lo; slot < hi; slot++ {
		h.space.Read(clk, h.slotOff(slot), hdr[:])
		ts := binary.LittleEndian.Uint64(hdr[0:])
		flags := uint8(binary.LittleEndian.Uint64(hdr[8:]) & 0xFF)
		if flags&FlagOccupied == 0 {
			continue
		}
		h.space.Read(clk, h.PayloadAddr(slot), buf)
		fn(slot, ts, flags, buf)
	}
}

// EnsureCursorPast bumps the owning thread's allocation cursor to slot+1 if
// it is behind. Recovery calls this for every occupied slot it accepts, so a
// crash-reverted cursor cannot hand a recovered tuple's slot out again.
func (h *Heap) EnsureCursorPast(clk *sim.Clock, slot uint64) {
	t := h.Owner(slot)
	h.listMu[t].Lock()
	defer h.listMu[t].Unlock()
	if cur := h.readThr(clk, t, thrCursor); cur <= slot {
		h.writeThr(clk, t, thrCursor, slot+1)
	}
}

// ScrubDeletedLists drops from each thread's deleted list every entry whose
// slot is live again, and rewrites the durable chain so the media and the
// DRAM mirror agree. Two crash shapes leave a live slot listed: replay can
// transiently relink a slot that a later committed record re-inserts (the
// delete's timestamp guard cannot see heap writes that were still in the
// lost cache when the re-inserting WAL record was published), and under ADR
// the durable list head itself may be stale — still naming a slot whose
// reclaiming pop was cached and lost while the re-allocating insert
// committed. Either way, handing the slot out again would clobber a durably
// committed tuple. In-place recovery calls this after log replay, once every
// durable flag is final: only slots still marked dead stay listed. Horizons
// reset to zero (no pre-crash transaction survives). Returns the number of
// entries dropped.
func (h *Heap) ScrubDeletedLists(clk *sim.Clock) (dropped int) {
	for t := 0; t < h.nthreads; t++ {
		h.listMu[t].Lock()
		kept := h.free[t][:0]
		seen := make(map[uint64]bool, len(h.free[t]))
		for _, e := range h.free[t] {
			if seen[e.slot] {
				dropped++
				continue
			}
			seen[e.slot] = true
			if h.ReadFlags(clk, e.slot)&(FlagDeleted|FlagInvalidated) == 0 {
				dropped++
				continue
			}
			kept = append(kept, freeEntry{slot: e.slot})
		}
		if len(kept) == 0 {
			h.writeThr(clk, t, thrDelHead, 0)
			h.writeThr(clk, t, thrDelTail, 0)
		} else {
			h.writeThr(clk, t, thrDelHead, kept[0].slot+1)
			h.writeThr(clk, t, thrDelTail, kept[len(kept)-1].slot+1)
			for i, e := range kept {
				var next uint64
				if i+1 < len(kept) {
					next = kept[i+1].slot + 1
				}
				w := h.readFlagsWord(clk, e.slot)
				h.writeFlagsWord(clk, e.slot, (w&0xFF)|(next<<8))
			}
		}
		h.free[t] = kept
		h.listMu[t].Unlock()
	}
	return dropped
}

// ResetDeletedLists clears every thread's durable deleted list and its DRAM
// mirror. The list head/tail and per-slot link words are written through the
// cache on the hot path, so after an ADR crash the media may hold a stale
// list that still references slots re-allocated (and live) before the crash
// — recycling such an entry would clobber a committed tuple. Out-of-place
// recovery already classifies every slot via its full heap scan, so it calls
// this first and relinks the dead slots it finds, rebuilding the lists from
// scratch.
func (h *Heap) ResetDeletedLists(clk *sim.Clock) {
	for t := 0; t < h.nthreads; t++ {
		h.listMu[t].Lock()
		h.writeThr(clk, t, thrDelHead, 0)
		h.writeThr(clk, t, thrDelTail, 0)
		h.free[t] = nil
		h.listMu[t].Unlock()
	}
}
