package pmem

import (
	"encoding/binary"

	"falcon/internal/sim"
)

// Space is the memory abstraction the database engine is written against.
// The same engine code runs over simulated NVM or simulated DRAM (both a
// MemSpace, see there), which is how the paper's NVM-index vs DRAM-index
// configurations are expressed.
type Space interface {
	// Read copies len(dst) bytes at off into dst.
	Read(clk *sim.Clock, off uint64, dst []byte)
	// Write stores src at off.
	Write(clk *sim.Clock, off uint64, src []byte)
	// CLWB hints write-back of the cache lines covering [off, off+n).
	// It is a no-op on DRAM.
	CLWB(clk *sim.Clock, off uint64, n int)
	// CLWBTrain hints write-back of the lines covering each span as one
	// coalesced multi-line flush train: the first line of a span pays the
	// full clwb issue cost, each further adjacent line a reduced train cost.
	// It is a no-op on DRAM.
	CLWBTrain(clk *sim.Clock, spans []Span)
	// SFence orders preceding stores. It is a no-op on DRAM.
	SFence(clk *sim.Clock)
	// ReadU64 reads the little-endian uint64 at off — Read with an 8-byte
	// buffer. It is on the interface so the scratch word lives inside the
	// concrete implementation's stack frame: an 8-byte buffer handed
	// through an interface call heap-escapes, and per-word metadata access
	// (slot headers, thread cursors, log states) is hot enough on the sweep
	// path for that allocation to be measurable.
	ReadU64(clk *sim.Clock, off uint64) uint64
	// WriteU64 stores a little-endian uint64 at off (same single simulated
	// store as an 8-byte Write).
	WriteU64(clk *sim.Clock, off uint64, v uint64)
	// WriteU64Pair stores a then b at off as one 16-byte simulated store,
	// scratch-free like WriteU64 (a heap slot's timestamp and flags).
	WriteU64Pair(clk *sim.Clock, off uint64, a, b uint64)
	// BulkWrite installs bytes without simulation cost; for initial loads
	// only. It must not touch ranges already accessed through the cache —
	// resident lines would go stale.
	BulkWrite(off uint64, src []byte)
	// BulkWriteU64 is BulkWrite of one little-endian word, scratch-free
	// like ReadU64/WriteU64.
	BulkWriteU64(off uint64, v uint64)
	// Size returns the capacity in bytes.
	Size() uint64
}

// MemSpace is the one Space: a simulated cache over a Device that holds the
// bytes. The two memories differ only in what they are built with:
//
//   - NVM (System.Space): the cache in the system's Mode over the XPBuffer
//     and the media, with CLWB, CLWBTrain and SFence reaching the cache.
//   - DRAM (NewDRAM): an ADR cache over the dram level, which charges DRAM
//     latencies and keeps the bytes in a sparse Device of its own; flushes
//     and fences are ignored, and nothing survives a crash (the engine
//     rebuilds DRAM structures during recovery).
//
// Concrete types all the way down — the cache, the device — keep ReadU64's
// scratch word on the stack.
type MemSpace struct {
	cache *Cache
	dev   *Device
	// flush lets CLWB, CLWBTrain and SFence reach the cache (NVM only).
	flush bool
}

// NewDRAM allocates a volatile space of size bytes behind a 2 MiB 16-way
// cache. No byte of it is allocated on the host until written back.
func NewDRAM(size uint64) *MemSpace {
	return newDRAM(size, 2<<20, 16)
}

// newDRAM is NewDRAM with an explicit cache size and associativity.
func newDRAM(size uint64, cacheBytes, ways int) *MemSpace {
	lvl := &dram{dev: NewDevice(size)}
	// The cache limit is size itself: NewDevice rounds up to a block.
	return &MemSpace{cache: newCache(lvl, &lvl.dev.stats, ADR, cacheBytes, ways, size), dev: lvl.dev}
}

// dram is the level beneath a DRAM space's cache.
type dram struct {
	dev *Device
}

func (d *dram) writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	clk.Advance(sim.DRAMNextLine) // write-backs are posted: the streaming cost only
	d.dev.RawWrite(lineAddr, data[:])
}

func (d *dram) fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) {
	clk.Advance(sim.DRAMFirstLine)
	d.dev.readLineInto(lineAddr, dst)
}

func (d *dram) drain(*sim.Clock) {}

// NoFlush returns a view of s over the same cache and device whose CLWB,
// CLWBTrain and SFence do nothing: the space for a structure of an engine
// that issues no flush.
func (s *MemSpace) NoFlush() *MemSpace { return &MemSpace{cache: s.cache, dev: s.dev} }

func (s *MemSpace) Read(clk *sim.Clock, off uint64, dst []byte) { s.cache.Load(clk, off, dst) }

func (s *MemSpace) Write(clk *sim.Clock, off uint64, src []byte) { s.cache.Store(clk, off, src) }

func (s *MemSpace) CLWB(clk *sim.Clock, off uint64, n int) {
	if s.flush {
		s.cache.CLWB(clk, off, n)
	}
}

func (s *MemSpace) CLWBTrain(clk *sim.Clock, spans []Span) {
	if s.flush {
		s.cache.CLWBTrain(clk, spans)
	}
}

func (s *MemSpace) SFence(clk *sim.Clock) {
	if s.flush {
		s.cache.SFence(clk)
	}
}

func (s *MemSpace) ReadU64(clk *sim.Clock, off uint64) uint64 {
	var b [8]byte
	s.Read(clk, off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (s *MemSpace) WriteU64(clk *sim.Clock, off uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(clk, off, b[:])
}

func (s *MemSpace) WriteU64Pair(clk *sim.Clock, off uint64, a, b uint64) {
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:], a)
	binary.LittleEndian.PutUint64(w[8:], b)
	s.Write(clk, off, w[:])
}

func (s *MemSpace) BulkWrite(off uint64, src []byte) { s.dev.RawWrite(off, src) }

func (s *MemSpace) BulkWriteU64(off uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.dev.RawWrite(off, b[:])
}

// Size is the size the space was built with (the cache's bound).
func (s *MemSpace) Size() uint64 { return s.cache.limit }

// Cache exposes the shared simulated cache; its Mode tells an eADR NVM
// space, whose stores are durable without flushes, from the rest.
func (s *MemSpace) Cache() *Cache { return s.cache }
