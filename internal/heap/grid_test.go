package heap

import (
	"bytes"
	"fmt"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestWholeValueUpdateWritesWholeBlocks: a 1 008 B payload has a 1 024 B
// stride, four media blocks once slot 0 starts on one. Updating the whole value
// after its key ([8, 1008)), stamping the timestamp and writing the slot back
// must reach the media as four full-block writes — no partial write, so no
// read-modify-write — at every thread count, whatever the per-thread header
// blocks add up to.
func TestWholeValueUpdateWritesWholeBlocks(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 16} {
		h, sys := newTestHeap(t, Config{SlotSize: 1008, NSlots: 64, NThreads: threads})
		clk := sim.NewClock()
		slot, err := h.Alloc(clk, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var img []byte
		h.Publish(clk, slot, 1, make([]byte, 1008), &img)
		sys.Sync(clk) // durable, and resident and clean in the cache
		before := sys.Dev.Stats().Snapshot()
		h.WriteRange(clk, slot, 8, bytes.Repeat([]byte{0xC3}, 1000))
		h.WriteTS(clk, slot, 2)
		h.CLWBSlot(clk, slot, 8, 1000)
		sys.Sync(clk)
		d := sys.Dev.Stats().Snapshot().Sub(before)
		if d.MediaWrites != 4 || d.FullBlockWrites != 4 || d.PartialBlockWrites != 0 || d.MediaReads != 0 {
			t.Errorf("%d threads: slot at %d; the update made %d media writes, %d full and %d partial, and read %d blocks; want 4, 4, 0, 0",
				threads, h.slotOff(slot), d.MediaWrites, d.FullBlockWrites, d.PartialBlockWrites, d.MediaReads)
		}
	}
}

// addLines counts each 64 B line that [off, off+n) covers into m.
func addLines(m map[uint64]int, off uint64, n int) {
	for la := off &^ (pmem.LineSize - 1); la < off+uint64(n); la += pmem.LineSize {
		m[la]++
	}
}

// clwbRecorder counts the lines each CLWB covers.
type clwbRecorder struct {
	pmem.Space
	lines map[uint64]int
}

func (r *clwbRecorder) CLWB(clk *sim.Clock, off uint64, n int) {
	addLines(r.lines, off, n)
	r.Space.CLWB(clk, off, n)
}

// TestFlushLineBudget: CLWBSlot writes back each line of the slot header and
// of the payload range once and returns their count, and FlushSpans names each
// of those lines once — including a range that starts in line 0, beside the
// header.
func TestFlushLineBudget(t *testing.T) {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 1 << 20})
	rec := &clwbRecorder{Space: sys.Space}
	h, err := New(rec, 0, Config{SlotSize: 1008, NSlots: 4, NThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	const slot = 1
	for _, r := range []struct{ off, n int }{
		{0, 0}, {0, 8}, {0, 1008}, {8, 1000}, {8, 8}, {40, 8}, {47, 2}, {48, 8}, {100, 20}, {1000, 8},
	} {
		want := map[uint64]int{}
		addLines(want, h.slotOff(slot), slotHdrBytes)
		addLines(want, h.PayloadAddr(slot)+uint64(r.off), r.n)
		for la := range want {
			want[la] = 1
		}
		rec.lines = map[uint64]int{}
		n := h.CLWBSlot(nil, slot, r.off, r.n)
		if got := fmt.Sprint(rec.lines); got != fmt.Sprint(want) {
			t.Errorf("CLWBSlot(off %d, n %d) wrote back lines %s; want %s", r.off, r.n, got, fmt.Sprint(want))
		}
		if n != len(want) {
			t.Errorf("CLWBSlot(off %d, n %d) returned %d lines, want %d", r.off, r.n, n, len(want))
		}
		named := map[uint64]int{}
		for _, sp := range h.FlushSpans(slot, r.off, r.n, nil) {
			addLines(named, sp.Off, sp.N)
		}
		if got := fmt.Sprint(named); got != fmt.Sprint(want) {
			t.Errorf("FlushSpans(off %d, n %d) names lines %s; want %s", r.off, r.n, got, fmt.Sprint(want))
		}
	}
}

// TestOpenRefusesOldLayout: a heap formatted before the header was padded to
// a media block carries the previous magic word, and its slots sit where this
// layout does not look for them, so Open refuses it.
func TestOpenRefusesOldLayout(t *testing.T) {
	h, sys := newTestHeap(t, Config{SlotSize: 100, NSlots: 8, NThreads: 2})
	sys.Space.BulkWriteU64(h.base+hdrMagic, 0xFA1C04EA_90000001)
	if _, err := Open(sys.Space, sim.NewClock(), 0); err == nil {
		t.Fatal("Open accepted a heap image of the 64 B-header layout")
	}
}
