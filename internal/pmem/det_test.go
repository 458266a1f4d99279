package pmem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"falcon/internal/sim"
)

// TestGroupModeDataAuthority checks that group mode serves the bytes written
// before entry (via the flushed shared cache) and after entry (via direct
// device writes), and that leaving the group returns a coherent shared-cache
// view of everything written in group mode.
func TestGroupModeDataAuthority(t *testing.T) {
	sys := NewSystem(Config{DeviceBytes: 1 << 20})
	clk := sim.NewClock()

	pre := []byte("written-before-group-entry......")
	sys.Space.Write(clk, 128, pre)

	sys.Space.EnterGroup(4)
	if !sys.Space.InGroup() {
		t.Fatal("InGroup() = false after EnterGroup")
	}
	got := make([]byte, len(pre))
	sys.Space.Read(clk, 128, got)
	if !bytes.Equal(got, pre) {
		t.Fatalf("group-mode read of pre-entry bytes = %q, want %q", got, pre)
	}

	in := []byte("written-inside-group-mode.......")
	w2 := sim.NewWorkerClock(2)
	sys.Space.Write(w2, 4096, in)
	sys.Space.Read(clk, 4096, got)
	if !bytes.Equal(got, in) {
		t.Fatalf("cross-partition read = %q, want %q", got, in)
	}
	if w2.Nanos() == 0 {
		t.Fatal("group-mode write charged no virtual time")
	}

	sys.Space.LeaveGroup()
	sys.Space.Read(clk, 4096, got)
	if !bytes.Equal(got, in) {
		t.Fatalf("post-group read = %q, want %q", got, in)
	}
	sys.Space.Read(clk, 128, got)
	if !bytes.Equal(got, pre) {
		t.Fatalf("post-group read of pre-entry bytes = %q, want %q", got, pre)
	}
}

// TestGroupModeTimingDeterminism runs the same per-worker access pattern
// under two different parallel schedules and asserts the virtual clocks come
// out identical: partitioned timing state must make per-worker costs a pure
// function of that worker's access sequence.
func TestGroupModeTimingDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers = 4
	run := func() []uint64 {
		sys := NewSystem(Config{DeviceBytes: 8 << 20})
		sys.Space.EnterGroup(workers)
		clks := make([]*sim.Clock, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			clks[w] = sim.NewWorkerClock(w)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, 64)
				// Private region per worker plus a shared read-only region.
				base := uint64(w+1) << 20
				for i := 0; i < 2000; i++ {
					sys.Space.Write(clks[w], base+uint64(i*64)%(1<<18), buf)
					sys.Space.Read(clks[w], uint64(i*64)%(1<<16), buf)
					if i%64 == 0 {
						sys.Space.CLWB(clks[w], base, 256)
						sys.Space.SFence(clks[w])
					}
				}
			}(w)
		}
		wg.Wait()
		out := make([]uint64, workers)
		for w := range clks {
			out[w] = clks[w].Nanos()
		}
		return out
	}
	a, b := run(), run()
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("worker %d virtual time differs across schedules: %d vs %d", w, a[w], b[w])
		}
	}
}

// TestGroupModeDRAM covers the DRAM-space variant: direct flat-array bytes
// with per-worker timing caches.
func TestGroupModeDRAM(t *testing.T) {
	cost := sim.DefaultCostModel()
	s := NewDRAM(1<<20, cost)
	clk := sim.NewClock()
	pre := []byte("dram-pre-group..")
	s.Write(clk, 64, pre)

	s.EnterGroup(2)
	got := make([]byte, len(pre))
	s.Read(clk, 64, got)
	if !bytes.Equal(got, pre) {
		t.Fatalf("group-mode DRAM read = %q, want %q", got, pre)
	}
	in := []byte("dram-in-group...")
	w1 := sim.NewWorkerClock(1)
	s.Write(w1, 2048, in)
	s.Read(clk, 2048, got)
	if !bytes.Equal(got, in) {
		t.Fatalf("cross-partition DRAM read = %q, want %q", got, in)
	}
	s.LeaveGroup()
	s.Read(clk, 2048, got)
	if !bytes.Equal(got, in) {
		t.Fatalf("post-group DRAM read = %q, want %q", got, in)
	}
}
