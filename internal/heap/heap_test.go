package heap

import (
	"bytes"
	"errors"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func newTestHeap(t *testing.T, cfg Config) (*Heap, *pmem.System) {
	t.Helper()
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
	h, err := New(sys.Space, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, sys
}

func TestHeapGeometry(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 100, NSlots: 64, NThreads: 4})
	if h.SlotSize() != 100 {
		t.Errorf("SlotSize = %d", h.SlotSize())
	}
	// 100 + 16 header = 116, rounded to the next line = 128.
	if h.stride != 128 {
		t.Errorf("stride = %d, want 128", h.stride)
	}
	if h.Owner(0) != 0 || h.Owner(16) != 1 || h.Owner(63) != 3 {
		t.Error("Owner partitioning wrong")
	}
}

func TestHeapPayloadRoundTrip(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 128, NSlots: 16, NThreads: 2})
	clk := sim.NewClock()
	slot, err := h.Alloc(clk, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{0xAD}, 128)
	h.WritePayload(clk, slot, src)
	dst := make([]byte, 128)
	h.ReadPayload(clk, slot, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("payload round trip failed")
	}

	patch := []byte("xyz")
	h.WriteRange(clk, slot, 10, patch)
	h.ReadRange(clk, slot, 10, dst[:3])
	if !bytes.Equal(dst[:3], patch) {
		t.Fatal("range update failed")
	}
}

func TestHeapAllocPerThreadRanges(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 64, NSlots: 40, NThreads: 4})
	clk := sim.NewClock()
	for th := 0; th < 4; th++ {
		for i := 0; i < 10; i++ {
			slot, err := h.Alloc(clk, th, 0)
			if err != nil {
				t.Fatalf("thread %d alloc %d: %v", th, i, err)
			}
			if h.Owner(slot) != th {
				t.Fatalf("thread %d got slot %d owned by %d", th, slot, h.Owner(slot))
			}
		}
		if _, err := h.Alloc(clk, th, 0); !errors.Is(err, ErrHeapFull) {
			t.Fatalf("thread %d: 11th alloc err = %v, want ErrHeapFull", th, err)
		}
	}
}

func TestHeapRetireAndRecycle(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 64, NSlots: 8, NThreads: 1})
	clk := sim.NewClock()
	s1, _ := h.Alloc(clk, 0, 0)
	var img []byte
	h.Publish(clk, s1, 1, make([]byte, 64), &img)
	h.Retire(clk, s1, 100, 100, false)

	if h.ReadFlags(clk, s1)&FlagDeleted == 0 {
		t.Fatal("retired slot still live")
	}
	// minActive 50 < deletion ts 100: a running txn might still read it.
	s2, _ := h.Alloc(clk, 0, 50)
	if s2 == s1 {
		t.Fatal("slot recycled while still visible to active transactions")
	}
	// minActive 200 > 100: reclaimable now.
	s3, _ := h.Alloc(clk, 0, 200)
	if s3 != s1 {
		t.Fatalf("slot %d not recycled (got %d)", s1, s3)
	}
}

func TestHeapRetireOrderFIFO(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 64, NSlots: 8, NThreads: 1})
	clk := sim.NewClock()
	a, _ := h.Alloc(clk, 0, 0)
	b, _ := h.Alloc(clk, 0, 0)
	h.Retire(clk, a, 10, 10, false)
	h.Retire(clk, b, 20, 20, false)
	got1, _ := h.Alloc(clk, 0, 1000)
	got2, _ := h.Alloc(clk, 0, 1000)
	if got1 != a || got2 != b {
		t.Fatalf("recycle order (%d,%d), want (%d,%d) — deleted list must be timestamp-ordered", got1, got2, a, b)
	}
}

func TestHeapSurvivesCrash(t *testing.T) {
	cfg := Config{SlotSize: 96, NSlots: 16, NThreads: 2}
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
	h, err := New(sys.Space, 4096, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	slot, _ := h.Alloc(clk, 1, 0)
	payload := bytes.Repeat([]byte{7}, 96)
	var img []byte
	h.Publish(clk, slot, 42, payload, &img)

	sys2 := sys.Crash() // eADR: dirty lines persist
	h2, err := Open(sys2.Space, clk, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NSlots() != h.NSlots() || h2.SlotSize() != cfg.SlotSize {
		t.Fatal("geometry lost across crash")
	}
	got := make([]byte, 96)
	h2.ReadPayload(clk, slot, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload lost across eADR crash")
	}
	if ts := h2.ReadTS(clk, slot); ts != 42 {
		t.Fatalf("ts = %d, want 42", ts)
	}
	// Allocation cursor must have survived: a new alloc must not hand out
	// the same slot again.
	s2, err := h2.Alloc(clk, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == slot {
		t.Fatal("allocation cursor lost: slot handed out twice")
	}
}

func TestHeapScanVisitsLiveTuples(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 64, NSlots: 16, NThreads: 2})
	clk := sim.NewClock()
	want := map[uint64]byte{}
	var img []byte
	for i := 0; i < 3; i++ {
		slot, _ := h.Alloc(clk, 0, 0)
		h.Publish(clk, slot, uint64(i+1), bytes.Repeat([]byte{byte(i + 1)}, 64), &img)
		want[slot] = byte(i + 1)
	}
	got := map[uint64]byte{}
	h.Scan(clk, func(slot uint64, ts uint64, flags uint8, payload []byte) {
		got[slot] = payload[0]
	})
	if len(got) != len(want) {
		t.Fatalf("scan visited %d slots, want %d", len(got), len(want))
	}
	for s, b := range want {
		if got[s] != b {
			t.Errorf("slot %d payload %d, want %d", s, got[s], b)
		}
	}
}

func TestHeapScanChargesTraffic(t *testing.T) {
	h, sys := newTestHeap(t, Config{SlotSize: 1024, NSlots: 256, NThreads: 1})
	clk := sim.NewClock()
	var img []byte
	for i := 0; i < 256; i++ {
		slot, _ := h.Alloc(clk, 0, 0)
		h.Publish(clk, slot, 1, make([]byte, 1024), &img)
	}
	// Recovery scans a cold cache: the published slots are all resident here.
	h, err := Open(sys.Crash().Space, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := clk.Nanos()
	h.Scan(clk, func(uint64, uint64, uint8, []byte) {})
	if clk.Nanos()-before < 256*100 {
		t.Fatal("heap scan charged almost no virtual time; recovery costs would be wrong")
	}
}

func TestHeapMetaIndependentPerSlot(t *testing.T) {
	h, _ := newTestHeap(t, Config{SlotSize: 64, NSlots: 8, NThreads: 1})
	l0, r0 := h.Meta(0)
	l1, _ := h.Meta(1)
	l0.Store(7)
	r0.Store(9)
	if l1.Load() != 0 {
		t.Fatal("meta words shared between slots")
	}
	if l0.Load() != 7 || r0.Load() != 9 {
		t.Fatal("meta words lost values")
	}
}
