package pmem

import (
	"bytes"
	"math/rand"
	"testing"

	"falcon/internal/sim"
)

// liveChunks counts the chunks the device has materialized.
func liveChunks(d *Device) int {
	n := 0
	for i := range d.chunks {
		if d.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestZeroWritesLeaveVirginChunksUnallocated: formatting a region by writing
// zeros to it must not cost the host the region's size. Zeros over capacity
// that was never written allocate nothing and read back zero; zeros over
// bytes that were written do clear them.
func TestZeroWritesLeaveVirginChunksUnallocated(t *testing.T) {
	sys := NewSystem(Config{DeviceBytes: 8 * deviceChunkBytes})
	dev := sys.Dev
	// A span over three chunks, unaligned at both ends, then a word per block
	// the way an index format clears bucket headers.
	dev.RawWrite(deviceChunkBytes/2, make([]byte, 2*deviceChunkBytes+100))
	for off := uint64(4 * deviceChunkBytes); off < 6*deviceChunkBytes; off += BlockSize {
		sys.Space.BulkWriteU64(off, 0)
	}
	if n := liveChunks(dev); n != 0 {
		t.Fatalf("zero writes over virgin capacity materialized %d chunks", n)
	}
	got := bytes.Repeat([]byte{0xff}, 3*deviceChunkBytes)
	dev.RawRead(0, got)
	if len(bytes.Trim(got, "\x00")) != 0 {
		t.Fatal("virgin capacity does not read back zero")
	}

	// A span whose non-zero byte lies in its second chunk allocates that one.
	span := make([]byte, deviceChunkBytes+8)
	span[len(span)-1] = 7
	dev.RawWrite(6*deviceChunkBytes, span)
	if n := liveChunks(dev); n != 1 || dev.chunkFor(7*deviceChunkBytes) == nil {
		t.Fatalf("%d chunks live after a write whose only non-zero byte is in chunk 7", n)
	}

	// Zeros over written bytes clear them, through either entry point.
	sys.Space.BulkWrite(100, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	sys.Space.BulkWriteU64(100, 0)
	dev.RawWrite(112, make([]byte, 4))
	got = got[:16]
	dev.RawRead(100, got)
	if want := []byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 10, 11, 12, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("after zero writes over written bytes: % d, want % d", got, want)
	}
}

// TestSparseDeviceMatchesFlatArray drives raw writes and then simulated
// stores — a third of each all zeros, many over chunks not yet written —
// against a flat array, and demands the same bytes from loads through the
// cache and from the image a crash leaves.
func TestSparseDeviceMatchesFlatArray(t *testing.T) {
	const size = 6 * deviceChunkBytes
	rng := rand.New(rand.NewSource(23))
	sys := NewSystem(Config{DeviceBytes: size, CacheBytes: 64 << 10})
	flat := make([]byte, size)
	clk := sim.NewClock()
	for i := 0; i < 400; i++ {
		raw := i < 200 // raw writes first: BulkWrite must not go under resident lines
		n := 1 + rng.Intn(3000)
		if raw && i%40 == 0 {
			n = deviceChunkBytes + rng.Intn(deviceChunkBytes) // crosses a chunk edge
		}
		off := uint64(rng.Intn(size - n))
		src := make([]byte, n)
		if rng.Intn(3) != 0 {
			rng.Read(src)
		}
		copy(flat[off:], src)
		if raw {
			sys.Dev.RawWrite(off, src)
		} else {
			sys.Space.Write(clk, off, src)
		}
	}
	got := make([]byte, 4096)
	for off := 0; off < size; off += len(got) {
		sys.Space.Read(clk, uint64(off), got)
		if !bytes.Equal(got, flat[off:off+len(got)]) {
			t.Fatalf("loads differ from the flat array in [%d, +%d)", off, len(got))
		}
	}
	image := make([]byte, size)
	sys.Crash().Dev.RawRead(0, image)
	if !bytes.Equal(image, flat) {
		t.Fatal("crash image differs from the flat array")
	}
}
