package pmem

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"falcon/internal/sim"
)

// TestReadAllocateSiblingsHit: a load miss on a cold block reads the block
// from the media once; the loads of its other three lines are buffer hits.
func TestReadAllocateSiblingsHit(t *testing.T) {
	sys := testSystem(EADR)
	const base = 64 << 10 // block-aligned, never touched
	var b [8]byte
	for l := uint64(0); l < LinesPerBlock; l++ {
		before, clk := sys.Dev.Stats().Snapshot(), sim.NewClock()
		sys.Space.Read(clk, base+l*LineSize, b[:])
		d := sys.Dev.Stats().Snapshot().Sub(before)
		wantNanos, wantReads, wantHits := sim.CacheMissLine+sim.MediaReadBlock, uint64(1), uint64(0)
		if l > 0 {
			wantNanos, wantReads, wantHits = sim.CacheMissLine+sim.XPBufferHit, 0, 1
		}
		if clk.Nanos() != wantNanos || d.MediaReads != wantReads || d.XPBufferReadFills != wantReads || d.XPBufferHits != wantHits {
			t.Errorf("line %d: %d ns, %d media reads, %d fills, %d buffer hits; want %d ns, %d, %d, %d",
				l, clk.Nanos(), d.MediaReads, d.XPBufferReadFills, d.XPBufferHits, wantNanos, wantReads, wantReads, wantHits)
		}
	}
}

// TestCleanSlotEvictionIsFree: a slot that was only read leaves the buffer
// without a media write, a fault point or a hook event.
func TestCleanSlotEvictionIsFree(t *testing.T) {
	dev := NewDevice(1 << 20)
	b := NewXPBuffer(dev, BlockSize, 1) // one bank of one slot
	plan := &FaultPlan{}                // N == 0: counts only
	b.faults = plan
	hooks := 0
	b.hook = func(uint64, FlushKind, uint64, uint64, uint64) { hooks++ }

	clk := sim.NewClock()
	var line [LineSize]byte
	b.ReadLine(clk, 0, &line)
	at := clk.Nanos()
	b.ReadLine(clk, 4*BlockSize, &line) // takes the only slot from block 0
	st := dev.Stats().Snapshot()
	if st.MediaWrites != 0 || st.BytesToMedia != 0 || liveChunks(dev) != 0 {
		t.Errorf("dropping a read-only slot wrote to the media: %d writes, %d bytes, %d chunks",
			st.MediaWrites, st.BytesToMedia, liveChunks(dev))
	}
	if st.XPBufferCleanEvictions != 1 || st.XPBufferReadFills != 2 {
		t.Errorf("%d clean evictions and %d read fills, want 1 and 2", st.XPBufferCleanEvictions, st.XPBufferReadFills)
	}
	if n := plan.Counts()[FaultDrain]; n != 0 || hooks != 0 {
		t.Errorf("dropping a read-only slot noted %d drains and fired %d hooks", n, hooks)
	}
	if got := clk.Nanos() - at; got != sim.MediaReadBlock {
		t.Errorf("the second read cost %d ns, want one media read (%d)", got, sim.MediaReadBlock)
	}
}

// TestWholeBlockEvictionSkipsRead: a partial slot whose unwritten lines a
// read brought in is written to the media without the read-modify-write's
// read; a slot whose block was never read still pays it. Both stay partial
// block writes to the counters, the fault plan and the hook.
func TestWholeBlockEvictionSkipsRead(t *testing.T) {
	for _, c := range []struct {
		name           string
		readFirst      bool
		reads, wholeEv uint64
	}{
		{"read-in block", true, 1, 1},
		{"cold block", false, 1, 0},
	} {
		dev := NewDevice(1 << 20)
		b := NewXPBuffer(dev, BlockSize, 1) // one bank of one slot
		plan := &FaultPlan{}                // N == 0: counts only
		b.faults = plan
		var kinds []FlushKind
		b.hook = func(_ uint64, k FlushKind, _, _, _ uint64) { kinds = append(kinds, k) }

		clk := sim.NewClock()
		var line [LineSize]byte
		if c.readFirst {
			b.ReadLine(clk, 0, &line)
		}
		line[0] = 0x5a
		b.WriteLine(clk, LineSize, &line)
		b.Drain(clk)

		st := dev.Stats().Snapshot()
		wantNanos := sim.MediaWriteBlock + sim.MediaReadBlock // the fill's read, or the eviction's
		if clk.Nanos() != wantNanos || st.MediaReads != c.reads || st.MediaWrites != 1 {
			t.Errorf("%s: %d ns, %d media reads, %d writes; want %d ns, %d, 1",
				c.name, clk.Nanos(), st.MediaReads, st.MediaWrites, wantNanos, c.reads)
		}
		if st.PartialBlockWrites != 1 || st.XPBufferWholeEvictions != c.wholeEv {
			t.Errorf("%s: %d partial writes, %d whole evictions; want 1, %d",
				c.name, st.PartialBlockWrites, st.XPBufferWholeEvictions, c.wholeEv)
		}
		if n := plan.Counts()[FaultDrain]; n != 1 || !slices.Equal(kinds, []FlushKind{FlushXPPartial}) {
			t.Errorf("%s: %d drains noted, hook kinds %v; want 1, [FlushXPPartial]", c.name, n, kinds)
		}
		var got [LineSize]byte
		dev.readLineInto(LineSize, &got)
		if want := byte(0x5a); got[0] != want {
			t.Errorf("%s: line 1 reads %#x from the device, want %#x", c.name, got[0], want)
		}
	}
}

// TestBulkWriteAfterReadAllocate: a clean line in the buffer must not hide
// bytes installed by BulkWrite after its block was read in. A buffer that
// kept a copy of the clean lines would return the old bytes here.
func TestBulkWriteAfterReadAllocate(t *testing.T) {
	sys := testSystem(EADR)
	clk := sim.NewClock()
	const base = 64 << 10
	var b [8]byte
	sys.Space.Read(clk, base, b[:]) // line 0: the block's four lines enter the buffer
	want := bytes.Repeat([]byte{0x5a}, LineSize)
	sys.Space.BulkWrite(base+LineSize, want) // line 1, never accessed through the cache
	hits := sys.Dev.Stats().Snapshot().XPBufferHits
	got := make([]byte, LineSize)
	sys.Space.Read(clk, base+LineSize, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("read after BulkWrite returned %x, want %x", got[:8], want[:8])
	}
	if sys.Dev.Stats().Snapshot().XPBufferHits != hits+1 {
		t.Error("the read of line 1 was not a buffer hit: the test no longer covers a clean line")
	}
}

// TestTearDrawsOnlyWrittenSlots: the torn-write injection picks among the
// slots holding written lines. Tearing a read-only slot would tear nothing,
// so a seed that drew one would silently inject no fault.
func TestTearDrawsOnlyWrittenSlots(t *testing.T) {
	dev := NewDevice(1 << 20)
	clk := sim.NewClock()
	var line [LineSize]byte
	for seed := uint64(1); seed <= 64; seed++ {
		b := NewXPBuffer(dev, 8*BlockSize, 1)
		bank := &b.banks[0]
		for i := uint64(0); i < 7; i++ {
			b.ReadLine(clk, i*BlockSize, &line)
		}
		b.tearOne(&FaultPlan{Seed: seed}) // nothing written: nothing to tear
		for l := uint64(0); l < LinesPerBlock; l++ {
			b.WriteLine(clk, 7*BlockSize+l*LineSize, &line)
		}
		b.tearOne(&FaultPlan{Seed: seed})
		for i := uint64(0); i < 7; i++ {
			if si := bank.index.get(i * BlockSize); si < 0 || bank.slots[si].clean != 1<<LinesPerBlock-1 {
				t.Fatalf("seed %d: tear touched read-only block %d", seed, i)
			}
		}
		if si := bank.index.get(7 * BlockSize); si >= 0 && bank.slots[si].mask == 1<<LinesPerBlock-1 {
			t.Fatalf("seed %d: the written block kept all its lines", seed)
		}
	}
}

// FuzzXPBufferModel runs random loads, stores, CLWBs, bulk writes and
// crashes on a tiny eADR system — one buffer bank of two slots under a
// four-line cache, so read fills, clean drops and dirty evictions interleave
// constantly — and compares every load, and the device image after every
// crash, with a flat byte array. BulkWrite keeps its contract: it only
// writes lines not accessed through the cache since the last crash.
func FuzzXPBufferModel(f *testing.F) {
	// Each op is four bytes: kind, offset (two bytes), length.
	f.Add([]byte{0, 0, 0, 8, 3, 64, 0, 64, 0, 64, 0, 8})              // load line 0, bulk-write line 1, load line 1
	f.Add([]byte{1, 0, 0, 200, 2, 0, 0, 200, 0, 0, 1, 8, 4, 0, 0, 0}) // store, CLWB, load another block, crash
	f.Add([]byte{1, 16, 0, 40, 0, 0, 4, 64, 0, 0, 8, 64, 0, 16, 0, 40, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 16 * BlockSize
		sys := NewSystem(Config{Mode: EADR, DeviceBytes: size, CacheBytes: 4 * LineSize, CacheWays: 2,
			XPBufferBytes: 2 * BlockSize, XPBanks: 1})
		clk := sim.NewClock()
		model := make([]byte, size)
		var touched [size / LineSize]bool // accessed through the cache since the last crash
		buf := make([]byte, 256)
		crash := func(step int) {
			sys = sys.Crash()
			touched = [size / LineSize]bool{}
			img := make([]byte, size)
			sys.Dev.RawRead(0, img)
			if !bytes.Equal(img, model) {
				t.Fatalf("op %d: post-crash image differs from the flat model", step)
			}
		}
		for i := 0; i+4 <= len(ops) && i < 4*512; i += 4 {
			n := 1 + int(ops[i+3])
			off := uint64(binary.LittleEndian.Uint16(ops[i+1:])) % (size - uint64(n) + 1)
			lo, hi := off/LineSize, (off+uint64(n)-1)/LineSize
			switch ops[i] % 5 {
			case 0:
				sys.Space.Read(clk, off, buf[:n])
				if !bytes.Equal(buf[:n], model[off:off+uint64(n)]) {
					t.Fatalf("op %d: load [%d,+%d) differs from the flat model", i/4, off, n)
				}
			case 1:
				for j := range buf[:n] {
					buf[j] = byte(i + j + 1)
				}
				sys.Space.Write(clk, off, buf[:n])
				copy(model[off:], buf[:n])
			case 2:
				sys.Space.CLWB(clk, off, n)
				continue // touches no line's bytes
			case 3:
				if slices.Contains(touched[lo:hi+1], true) {
					continue
				}
				for j := range buf[:n] {
					buf[j] = byte(i + j + 0x81)
				}
				sys.Space.BulkWrite(off, buf[:n])
				copy(model[off:], buf[:n])
				continue
			case 4:
				crash(i / 4)
				continue
			}
			for l := lo; l <= hi; l++ {
				touched[l] = true
			}
		}
		crash(len(ops) / 4)
	})
}
