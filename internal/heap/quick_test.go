package heap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestQuickAllocRetireNoDoubleHandout: under arbitrary alloc/retire
// interleavings with advancing horizons, the heap must never hand the same
// slot to two live owners, and recycled slots must respect their reclaim
// horizons.
func TestQuickAllocRetireNoDoubleHandout(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 32 << 20})
		h, err := New(sys.Space, 0, Config{SlotSize: 64, NSlots: 64, NThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock()
		live := map[uint64]bool{}
		retired := map[uint64]uint64{} // slot -> horizon
		now := uint64(100)
		for i := 0; i < 500; i++ {
			now += uint64(rng.Intn(5))
			th := rng.Intn(2)
			if rng.Intn(2) == 0 {
				slot, err := h.Alloc(clk, th, now)
				if err != nil {
					continue // exhausted or horizon-blocked: fine
				}
				if live[slot] {
					return false // double handout to a live owner
				}
				if hz, wasRetired := retired[slot]; wasRetired && hz >= now {
					return false // recycled before its horizon passed
				}
				delete(retired, slot)
				live[slot] = true
			} else if len(live) > 0 {
				// Retire a random live slot with a fresh horizon.
				var slot uint64
				for s := range live {
					slot = s
					break
				}
				delete(live, slot)
				hz := now + uint64(rng.Intn(10))
				h.Retire(clk, slot, now, hz, rng.Intn(2) == 0)
				retired[slot] = hz
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFreeListSurvivesCrash: the durable deleted list must reproduce
// the DRAM mirror after a crash (horizons reset; membership preserved).
func TestQuickFreeListSurvivesCrash(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 32 << 20})
		h, _ := New(sys.Space, 0, Config{SlotSize: 64, NSlots: 32, NThreads: 1})
		clk := sim.NewClock()
		var freed []uint64
		var img []byte
		for i := 0; i < 16; i++ {
			slot, err := h.Alloc(clk, 0, 0)
			if err != nil {
				break
			}
			h.Publish(clk, slot, uint64(i+1), make([]byte, 64), &img)
			if rng.Intn(2) == 0 {
				h.Retire(clk, slot, uint64(i+1), uint64(i+1), false)
				freed = append(freed, slot)
			}
		}
		h2, err := Open(sys.Crash().Space, clk, 0)
		if err != nil {
			return false
		}
		// Every freed slot must come back, in FIFO order, with horizon 0.
		for _, want := range freed {
			got, err := h2.Alloc(clk, 0, 1)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
