package pmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"falcon/internal/sim"
)

func testSystem(mode Mode) *System {
	return NewSystem(Config{
		Mode:          mode,
		DeviceBytes:   4 << 20,
		CacheBytes:    64 << 10,
		CacheWays:     8,
		XPBufferBytes: 8 << 10,
		XPBanks:       4,
	})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	src := []byte("hello, persistent world")
	sys.Space.Write(clk, 100, src)
	dst := make([]byte, len(src))
	sys.Space.Read(clk, 100, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("read back %q, want %q", dst, src)
	}
}

func TestStoreDoesNotReachMediaUntilWriteback(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	src := bytes.Repeat([]byte{0xAB}, 64)
	sys.Space.Write(clk, 0, src)

	raw := make([]byte, 64)
	sys.Dev.RawRead(0, raw)
	if bytes.Equal(raw, src) {
		t.Fatal("store reached media without any write-back; cache is not functional")
	}

	sys.Space.CLWB(clk, 0, 64)
	sys.Space.SFence(clk)
	sys.XPB.Drain(clk)
	sys.Dev.RawRead(0, raw)
	if !bytes.Equal(raw, src) {
		t.Fatal("clwb+drain did not propagate data to media")
	}
}

func TestCrashEADRPersistsDirtyLines(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	src := bytes.Repeat([]byte{0x5C}, 300) // spans blocks
	sys.Space.Write(clk, 128, src)

	sys2 := sys.Crash()
	got := make([]byte, len(src))
	sys2.Dev.RawRead(128, got)
	if !bytes.Equal(got, src) {
		t.Fatal("eADR crash lost dirty cache lines; they must persist")
	}
}

func TestCrashADRDropsDirtyLines(t *testing.T) {
	sys := testSystem(ADR)
	clk := sim.NewClock()
	src := bytes.Repeat([]byte{0x77}, 64)
	sys.Space.Write(clk, 0, src)

	sys2 := sys.Crash()
	got := make([]byte, len(src))
	sys2.Dev.RawRead(0, got)
	if bytes.Equal(got, src) {
		t.Fatal("ADR crash preserved unflushed data; dirty lines must be lost")
	}
	if sys.Dev.Stats().Snapshot().CrashDroppedLines == 0 {
		t.Error("expected CrashDroppedLines > 0 under ADR")
	}
}

func TestCrashADRKeepsFlushedLines(t *testing.T) {
	sys := testSystem(ADR)
	clk := sim.NewClock()
	src := bytes.Repeat([]byte{0x31}, 128)
	sys.Space.Write(clk, 256, src)
	sys.Space.CLWB(clk, 256, len(src))
	sys.Space.SFence(clk)

	sys2 := sys.Crash()
	got := make([]byte, len(src))
	sys2.Dev.RawRead(256, got)
	if !bytes.Equal(got, src) {
		t.Fatal("ADR crash lost clwb-flushed data; flushed lines reach the WPQ/XPBuffer which is in the persistence domain")
	}
}

func TestReadAfterCrashGoesThroughFreshCache(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	src := []byte("survives the crash")
	sys.Space.Write(clk, 4096, src)
	sys2 := sys.Crash()

	dst := make([]byte, len(src))
	sys2.Space.Read(clk, 4096, dst)
	if !bytes.Equal(dst, src) {
		t.Fatalf("post-crash read = %q, want %q", dst, src)
	}
}

func TestUnalignedStoresPreserveNeighbours(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	// Seed media directly, then overwrite a sub-range through the cache.
	base := bytes.Repeat([]byte{0x11}, 256)
	sys.Space.BulkWrite(1024, base)

	patch := bytes.Repeat([]byte{0x22}, 30)
	sys.Space.Write(clk, 1024+50, patch)

	got := make([]byte, 256)
	sys.Space.Read(clk, 1024, got)
	want := append([]byte{}, base...)
	copy(want[50:80], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("partial-line store corrupted neighbouring bytes (write-allocate fill broken)")
	}
}

func TestPartialBlockEvictionIsAmplified(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	// Write a single 64B line in each of many distinct, distant blocks and
	// flush each immediately: every XPBuffer slot holds one line, so each
	// eviction must read-modify-write.
	for i := uint64(0); i < 512; i++ {
		addr := i * 4096
		sys.Space.Write(clk, addr, make([]byte, LineSize))
		sys.Space.CLWB(clk, addr, LineSize)
	}
	sys.XPB.Drain(clk)
	st := sys.Dev.Stats().Snapshot()
	if st.PartialBlockWrites == 0 {
		t.Fatal("single-line evictions should be partial-block (amplified) writes")
	}
	if st.FullBlockWrites != 0 {
		t.Errorf("expected no full-block writes, got %d", st.FullBlockWrites)
	}
	if wa := st.WriteAmplification(); wa < 3.5 {
		t.Errorf("write amplification for 64B scattered writes = %.2f, want ~4x", wa)
	}
}

func TestAdjacentClwbsMergeIntoFullBlockWrites(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	// Write full 256B blocks and flush all 4 lines together (hinted flush):
	// the XPBuffer should merge them into full-block writes.
	for i := uint64(0); i < 512; i++ {
		addr := i * BlockSize
		sys.Space.Write(clk, addr, make([]byte, BlockSize))
		sys.Space.SFence(clk)
		sys.Space.CLWB(clk, addr, BlockSize)
	}
	sys.XPB.Drain(clk)
	st := sys.Dev.Stats().Snapshot()
	if st.FullBlockWrites == 0 {
		t.Fatal("adjacent-line clwbs never merged into full-block writes")
	}
	if st.PartialBlockWrites > st.FullBlockWrites/10 {
		t.Errorf("too many partial writes (%d) vs full (%d); merge is not working",
			st.PartialBlockWrites, st.FullBlockWrites)
	}
	if wa := st.WriteAmplification(); wa > 1.2 {
		t.Errorf("write amplification for hinted 256B flushes = %.2f, want ~1x", wa)
	}
}

func TestXPBufferServesLoadsFromBufferedLines(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	src := bytes.Repeat([]byte{0x42}, LineSize)
	sys.Space.Write(clk, 0, src)
	sys.Space.CLWB(clk, 0, LineSize) // now in XPBuffer, not yet on media

	// Evict the line from the cache by filling its set with conflicting
	// lines, then load it back: the fill must be served by the XPBuffer.
	// Conflicting addresses: same set index => stride = nsets*LineSize.
	stride := uint64(sys.Cache.nsets) * LineSize
	for i := uint64(1); i <= uint64(sys.Cache.ways)+1; i++ {
		var b [1]byte
		sys.Space.Read(clk, i*stride, b[:])
	}
	before := sys.Dev.Stats().Snapshot().XPBufferHits
	dst := make([]byte, LineSize)
	sys.Space.Read(clk, 0, dst)
	if !bytes.Equal(dst, src) {
		t.Fatal("load returned stale data for a line buffered in the XPBuffer")
	}
	if sys.Dev.Stats().Snapshot().XPBufferHits == before {
		t.Log("note: load was served by cache (line not evicted); stats unchanged")
	}
}

func TestDRAMSpaceRoundTripAndVolatility(t *testing.T) {
	d := NewDRAM(1 << 20)
	clk := sim.NewClock()
	src := []byte("volatile")
	d.Write(clk, 10, src)
	dst := make([]byte, len(src))
	d.Read(clk, 10, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("DRAM round trip failed")
	}
	if d.Cache().Mode() != ADR {
		t.Fatal("a DRAM space's cache must be outside the persistence domain")
	}
	if clk.Nanos() == 0 {
		t.Fatal("DRAM accesses must charge virtual time")
	}
}

// TestDRAMSpaceIsSparse: a DRAM space keeps its bytes in a sparse Device, so
// building a 1 GiB one and writing a line costs the host its cache, not its
// size, and Size stays the size asked for although the device rounds up.
func TestDRAMSpaceIsSparse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDRAM(1 << 30)
	d.Write(sim.NewClock(), 12345<<6, bytes.Repeat([]byte{7}, LineSize))
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 4<<20 {
		t.Errorf("a 1 GiB DRAM space with one line written raised HeapAlloc by %d B, want < 4 MiB", grew)
	}
	runtime.KeepAlive(d)
	if got := NewDRAM(1000).Size(); got != 1000 {
		t.Errorf("NewDRAM(1000).Size() = %d, want 1000", got)
	}
}

func TestVirtualTimeMonotoneAndCharged(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	prev := clk.Nanos()
	for i := 0; i < 1000; i++ {
		addr := uint64(rand.Intn(1 << 18))
		sys.Space.Write(clk, addr&^63, make([]byte, 64))
		if clk.Nanos() < prev {
			t.Fatal("virtual clock went backwards")
		}
		prev = clk.Nanos()
	}
	if clk.Nanos() == 0 {
		t.Fatal("stores charged no virtual time")
	}
}

func TestBulkWriteBypassesSimulation(t *testing.T) {
	sys := testSystem(EADR)
	src := bytes.Repeat([]byte{9}, 1024)
	sys.Space.BulkWrite(0, src)
	st := sys.Dev.Stats().Snapshot()
	if st.MediaWrites != 0 || st.CacheMisses != 0 {
		t.Fatal("BulkWrite must not generate simulated traffic")
	}
	got := make([]byte, 1024)
	sys.Dev.RawRead(0, got)
	if !bytes.Equal(got, src) {
		t.Fatal("BulkWrite content missing from media")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	sys.Space.Write(clk, sys.Space.Size()-1, make([]byte, 2))
}
