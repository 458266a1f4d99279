package pmem

import (
	"encoding/binary"

	"falcon/internal/sim"
)

// Space is the memory abstraction the database engine is written against.
// The same engine code runs over a simulated-NVM space (charged through the
// cache/XPBuffer/media hierarchy) or a DRAM space (charged through a cache
// over DRAM latencies), which is how the paper's NVM-index vs DRAM-index
// configurations are expressed.
type Space interface {
	// Read copies len(dst) bytes at off into dst.
	Read(clk *sim.Clock, off uint64, dst []byte)
	// Write stores src at off.
	Write(clk *sim.Clock, off uint64, src []byte)
	// CLWB hints write-back of the cache lines covering [off, off+n).
	// It is a no-op on non-persistent spaces.
	CLWB(clk *sim.Clock, off uint64, n int)
	// CLWBTrain hints write-back of the lines covering each span as one
	// coalesced multi-line flush train: the first line of a span pays the
	// full clwb issue cost, each further adjacent line a reduced train cost.
	// It is a no-op on non-persistent spaces.
	CLWBTrain(clk *sim.Clock, spans []Span)
	// SFence orders preceding stores.
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
	// Persistent reports whether data written here survives a crash
	// (possibly requiring flushes, depending on the cache mode).
	Persistent() bool
}

// NVMSpace is a Space backed by the simulated persistent-memory hierarchy.
type NVMSpace struct {
	cache *Cache
	dev   *Device
	// det, when non-nil, routes accesses through per-worker dataless timing
	// caches with the device as the byte authority (deterministic group
	// mode; see det.go). Nil on the normal path — one predictable branch.
	det *detPartition
}

// NewNVMSpace wraps a cache+device pair as a Space.
func NewNVMSpace(cache *Cache, dev *Device) *NVMSpace {
	return &NVMSpace{cache: cache, dev: dev}
}

func (s *NVMSpace) Read(clk *sim.Clock, off uint64, dst []byte) {
	if s.det != nil {
		s.det.cacheFor(clk).Load(clk, off, dst) // timing only (dataless)
		s.dev.RawRead(off, dst)
		return
	}
	s.cache.Load(clk, off, dst)
}

func (s *NVMSpace) Write(clk *sim.Clock, off uint64, src []byte) {
	if s.det != nil {
		s.det.cacheFor(clk).Store(clk, off, src) // timing only (dataless)
		s.dev.RawWrite(off, src)
		return
	}
	s.cache.Store(clk, off, src)
}

func (s *NVMSpace) CLWB(clk *sim.Clock, off uint64, n int) {
	if s.det != nil {
		s.det.cacheFor(clk).CLWB(clk, off, n)
		return
	}
	s.cache.CLWB(clk, off, n)
}

func (s *NVMSpace) CLWBTrain(clk *sim.Clock, spans []Span) {
	if s.det != nil {
		s.det.cacheFor(clk).CLWBTrain(clk, spans)
		return
	}
	s.cache.CLWBTrain(clk, spans)
}

func (s *NVMSpace) SFence(clk *sim.Clock) {
	if s.det != nil {
		s.det.cacheFor(clk).SFence(clk)
		return
	}
	s.cache.SFence(clk)
}

func (s *NVMSpace) ReadU64(clk *sim.Clock, off uint64) uint64 {
	var b [8]byte
	s.Read(clk, off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (s *NVMSpace) WriteU64(clk *sim.Clock, off uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(clk, off, b[:])
}

func (s *NVMSpace) WriteU64Pair(clk *sim.Clock, off uint64, a, b uint64) {
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:], a)
	binary.LittleEndian.PutUint64(w[8:], b)
	s.Write(clk, off, w[:])
}

func (s *NVMSpace) BulkWrite(off uint64, src []byte) { s.dev.RawWrite(off, src) }

func (s *NVMSpace) BulkWriteU64(off uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.dev.RawWrite(off, b[:])
}
func (s *NVMSpace) Size() uint64     { return s.dev.Size() }
func (s *NVMSpace) Persistent() bool { return true }

// Device exposes the backing device (stats, raw post-crash inspection).
func (s *NVMSpace) Device() *Device { return s.dev }

// Cache exposes the simulated CPU cache.
func (s *NVMSpace) Cache() *Cache { return s.cache }

// dramBackend is the memory level beneath a DRAM space's cache: a flat
// volatile array with DRAM fill/write-back latencies.
type dramBackend struct {
	data []byte
	cost sim.CostModel
}

func (d *dramBackend) writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	// DRAM write-backs are posted; charge the streaming cost only.
	clk.Advance(d.cost.DRAMNextLine)
	copy(d.data[lineAddr:lineAddr+LineSize], data[:])
}

func (d *dramBackend) fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) {
	clk.Advance(d.cost.DRAMFirstLine)
	copy(dst[:], d.data[lineAddr:lineAddr+LineSize])
}

func (d *dramBackend) drain(clk *sim.Clock) {}

// DRAMSpace is a Space backed by volatile memory behind its own simulated
// cache partition: hot structures (index upper levels, tuple-cache entries)
// cost cache hits, cold ones cost DRAM latency — matching how the paper's
// DRAM-resident indexes actually behave. Contents do not survive Crash; the
// engine recreates DRAM structures during recovery.
type DRAMSpace struct {
	back  *dramBackend
	cache *Cache
	// det, when non-nil, is the deterministic group-mode partition (see
	// det.go): per-worker dataless timing caches over the flat array.
	det *detPartition
}

// NewDRAMSpace allocates a volatile space of the given size with a default
// cache partition.
func NewDRAMSpace(size uint64, cost sim.CostModel) *DRAMSpace {
	return NewDRAMSpaceCache(size, cost, 2<<20, 16)
}

// NewDRAMSpaceCache allocates a volatile space with an explicit cache
// partition size and associativity.
func NewDRAMSpaceCache(size uint64, cost sim.CostModel, cacheBytes, ways int) *DRAMSpace {
	back := &dramBackend{data: make([]byte, size), cost: cost}
	stats := &Stats{} // DRAM spaces keep private counters; media stats stay NVM-only
	return &DRAMSpace{
		back:  back,
		cache: newCache(back, stats, ADR, cacheBytes, ways, size, cost, false),
	}
}

func (s *DRAMSpace) Read(clk *sim.Clock, off uint64, dst []byte) {
	if s.det != nil {
		s.det.cacheFor(clk).Load(clk, off, dst) // timing only (dataless)
		copy(dst, s.back.data[off:off+uint64(len(dst))])
		return
	}
	s.cache.Load(clk, off, dst)
}

func (s *DRAMSpace) Write(clk *sim.Clock, off uint64, src []byte) {
	if s.det != nil {
		s.det.cacheFor(clk).Store(clk, off, src) // timing only (dataless)
		copy(s.back.data[off:off+uint64(len(src))], src)
		return
	}
	s.cache.Store(clk, off, src)
}

func (s *DRAMSpace) ReadU64(clk *sim.Clock, off uint64) uint64 {
	var b [8]byte
	s.Read(clk, off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (s *DRAMSpace) WriteU64(clk *sim.Clock, off uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(clk, off, b[:])
}

func (s *DRAMSpace) WriteU64Pair(clk *sim.Clock, off uint64, a, b uint64) {
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:], a)
	binary.LittleEndian.PutUint64(w[8:], b)
	s.Write(clk, off, w[:])
}

func (s *DRAMSpace) CLWB(clk *sim.Clock, off uint64, n int) {}
func (s *DRAMSpace) CLWBTrain(clk *sim.Clock, spans []Span) {}
func (s *DRAMSpace) SFence(clk *sim.Clock)                  {}
func (s *DRAMSpace) BulkWrite(off uint64, src []byte) {
	copy(s.back.data[off:off+uint64(len(src))], src)
}

func (s *DRAMSpace) BulkWriteU64(off uint64, v uint64) {
	binary.LittleEndian.PutUint64(s.back.data[off:off+8], v)
}
func (s *DRAMSpace) Size() uint64     { return uint64(len(s.back.data)) }
func (s *DRAMSpace) Persistent() bool { return false }
