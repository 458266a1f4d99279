// Package alloc manages the simulated NVM address space. Following the
// paper's §5.1, storage is handed out in large regions from a global arena;
// finer-grained allocation (tuple slots, log records) is performed by the
// owning subsystem inside its region, usually per thread to avoid contention.
//
// Every region starts on a 256 B media block (pmem.BlockSize), so a structure
// that pads its own header to a whole block keeps its arrays on the media's
// block grid: a slot, bucket or node whose size is a multiple of the block
// flushes as whole blocks, never as a partial write the controller must first
// read from the media (DESIGN.md §3 "The media block grid").
//
// The arena's bump pointer is persisted through the simulated cache on every
// allocation. Under persistent cache (eADR) that store is durable the moment
// it executes, so allocation metadata survives crashes without explicit
// flushes — the same property Falcon relies on for its log windows.
package alloc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// HeaderBytes is the space the arena reserves for its own persistent state.
const HeaderBytes = 64

const arenaMagic = 0xFA1C0A11_0C470500

// ErrOutOfSpace is returned when the arena cannot satisfy an allocation.
var ErrOutOfSpace = errors.New("alloc: arena out of space")

// Arena allocates regions of the NVM space. It is safe for concurrent use.
type Arena struct {
	space pmem.Space
	hdr   uint64 // offset of the persistent header
	limit uint64

	mu   sync.Mutex
	next uint64
}

// NewArena formats a new arena whose persistent header lives at hdrOff and
// which hands out bytes in [start, limit).
func NewArena(space pmem.Space, hdrOff, start, limit uint64) (*Arena, error) {
	if hdrOff+HeaderBytes > start || start > limit || limit > space.Size() {
		return nil, fmt.Errorf("alloc: bad arena geometry hdr=%d start=%d limit=%d size=%d",
			hdrOff, start, limit, space.Size())
	}
	a := &Arena{space: space, hdr: hdrOff, limit: limit, next: start}
	var buf [HeaderBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], arenaMagic)
	binary.LittleEndian.PutUint64(buf[8:], start)
	binary.LittleEndian.PutUint64(buf[16:], limit)
	binary.LittleEndian.PutUint64(buf[24:], a.next)
	space.BulkWrite(hdrOff, buf[:])
	return a, nil
}

// OpenArena reopens an arena from its persistent header (recovery path).
func OpenArena(space pmem.Space, clk *sim.Clock, hdrOff uint64) (*Arena, error) {
	var buf [HeaderBytes]byte
	space.Read(clk, hdrOff, buf[:])
	if binary.LittleEndian.Uint64(buf[0:]) != arenaMagic {
		return nil, errors.New("alloc: no arena header found")
	}
	return &Arena{
		space: space,
		hdr:   hdrOff,
		limit: binary.LittleEndian.Uint64(buf[16:]),
		next:  binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

// Alloc returns an n-byte region that starts on a media block boundary.
func (a *Arena) Alloc(clk *sim.Clock, n uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	off := (a.next + pmem.BlockSize - 1) &^ (pmem.BlockSize - 1)
	if off+n > a.limit {
		return 0, fmt.Errorf("%w: need %d at %d, limit %d", ErrOutOfSpace, n, off, a.limit)
	}
	a.next = off + n
	a.persistNext(clk)
	return off, nil
}

func (a *Arena) persistNext(clk *sim.Clock) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], a.next)
	a.space.Write(clk, a.hdr+24, b[:])
	// The header line is hot and stays cached; under eADR the store above is
	// already durable. Under ADR an explicit flush is required.
	if !cachePersistent(a.space) {
		a.space.CLWB(clk, a.hdr+24, 8)
		a.space.SFence(clk)
	}
}

// cachePersistent reports whether stores to the space are durable without
// explicit flushes: an NVM space under eADR (a DRAM space's cache is ADR).
func cachePersistent(s pmem.Space) bool {
	m, ok := s.(*pmem.MemSpace)
	return ok && m.Cache().Mode() == pmem.EADR
}
