package pmem

import (
	"fmt"
	"sync/atomic"
)

// deviceChunkBytes is the host-allocation granularity of the media array.
// Chunks materialize on first write: a freshly created device owns no
// payload memory at all, which keeps per-sweep-cell setup from zeroing (and
// soft-faulting) hundreds of megabytes that the workload never touches —
// device capacity is estimated with generous headroom, so a large fraction
// of it stays virgin for the whole run.
const deviceChunkBytes = 1 << 20

type deviceChunk [deviceChunkBytes]byte

// Device is the simulated NVM storage media: a byte array accessed at
// BlockSize granularity, allocated sparsely in chunks. The array holds the
// durable image — what survives a crash (after the persistence-domain
// flushes defined by the Mode). Unwritten bytes read as zero, exactly as a
// flat zeroed array would.
//
// Chunk slots are installed with a CAS because XPBuffer banks lock per
// block, and blocks from different banks share a chunk; byte ranges inside
// a chunk are still protected by the callers' block/line locking, as they
// were with a flat array.
//
// Device methods do not charge virtual time themselves; latency accounting
// happens in the XPBuffer and Cache layers, which know *why* a media access
// happened.
type Device struct {
	size   uint64
	chunks []atomic.Pointer[deviceChunk]
	stats  Stats
}

// NewDevice creates a zeroed device of the given size, rounded up to a
// whole number of blocks. No payload memory is allocated until written.
func NewDevice(size uint64) *Device {
	size = (size + BlockSize - 1) &^ uint64(BlockSize-1)
	nchunks := (size + deviceChunkBytes - 1) / deviceChunkBytes
	return &Device{size: size, chunks: make([]atomic.Pointer[deviceChunk], nchunks)}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Stats returns the device's event counters.
func (d *Device) Stats() *Stats { return &d.stats }

// chunkFor returns the chunk covering addr, or nil if it was never written.
func (d *Device) chunkFor(addr uint64) *deviceChunk {
	return d.chunks[addr/deviceChunkBytes].Load()
}

// ensureChunk returns the chunk covering addr, materializing it on first
// write. Concurrent installers race benignly: the loser discards its
// allocation and uses the winner's chunk.
func (d *Device) ensureChunk(addr uint64) *deviceChunk {
	slot := &d.chunks[addr/deviceChunkBytes]
	if ch := slot.Load(); ch != nil {
		return ch
	}
	fresh := new(deviceChunk)
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// writeLines stores the valid 64 B sub-lines of a block to the media
// according to mask (bit i covers bytes [i*64, (i+1)*64)): the whole block
// when it was fully buffered, the merge half of a read-modify-write
// otherwise. Blocks are aligned and BlockSize divides the chunk size, so a
// block never straddles chunks.
func (d *Device) writeLines(blockAddr uint64, src *xpBlock, mask uint8) {
	ch := d.ensureChunk(blockAddr)
	base := blockAddr & (deviceChunkBytes - 1)
	for i := range src {
		if mask&(1<<i) != 0 {
			*(*[LineSize]byte)(ch[base+uint64(i)*LineSize:]) = src[i]
		}
	}
}

// readLineInto copies one 64 B line out of the media. Lines are aligned and
// never straddle a chunk, so this skips the span loop RawRead needs — it is
// the XPBuffer's fill path, hit on every cache miss the buffer can't serve.
func (d *Device) readLineInto(lineAddr uint64, dst *[LineSize]byte) {
	ch := d.chunkFor(lineAddr)
	if ch == nil {
		clear(dst[:])
		return
	}
	off := lineAddr & (deviceChunkBytes - 1)
	copy(dst[:], ch[off:off+LineSize])
}

// RawRead copies durable bytes out of the media without simulating the
// hierarchy. It is intended for test assertions and for inspecting the
// post-crash image; production code paths go through a Space.
func (d *Device) RawRead(off uint64, dst []byte) {
	d.checkRange(off, len(dst))
	for len(dst) > 0 {
		co := off & (deviceChunkBytes - 1)
		n := deviceChunkBytes - co
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if ch := d.chunkFor(off); ch != nil {
			copy(dst[:n], ch[co:co+n])
		} else {
			clear(dst[:n])
		}
		off += n
		dst = dst[n:]
	}
}

// RawWrite stores bytes directly to the media, bypassing the cache and the
// XPBuffer and charging no virtual time. It is used for bulk-loading initial
// database contents, which the paper also performs before measurement.
// Zeros written to a chunk that was never written leave it unallocated: it
// already reads as zero, and formatting a region by clearing it must not
// cost the host its size.
func (d *Device) RawWrite(off uint64, src []byte) {
	d.checkRange(off, len(src))
	for len(src) > 0 {
		co := off & (deviceChunkBytes - 1)
		n := deviceChunkBytes - co
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		ch := d.chunkFor(off)
		if ch == nil && !allZero(src[:n]) {
			ch = d.ensureChunk(off)
		}
		if ch != nil {
			copy(ch[co:co+n], src[:n])
		}
		off += n
		src = src[n:]
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func (d *Device) checkRange(off uint64, n int) {
	if off > d.size || uint64(n) > d.size-off {
		panic(fmt.Sprintf("pmem: access [%d, +%d) beyond device size %d", off, n, d.size))
	}
}
