package pmem

import (
	"bytes"
	"math/rand"
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
	if sys.Space.parts == nil {
		t.Fatal("no group partitions after EnterGroup")
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
	s := NewDRAM(1 << 20)
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

// TestCacheShare: a cache holds the bytes it is configured with, in whole
// sets. On the figures' cache (2 MiB + 256 KiB per worker) the shared cache
// holds 2.5 / 3 / 4 / 5 / 6 / 14 MiB at 2 / 4 / 8 / 12 / 16 / 48 workers, and a
// group-mode partition CacheBytes/n in whole sets.
func TestCacheShare(t *testing.T) {
	bytesOf := func(c *Cache) int { return int(c.nsets) * c.ways * LineSize }
	const set = 16 * LineSize
	for _, c := range []struct{ workers, bytes int }{{2, 5 << 19}, {4, 3 << 20}, {8, 4 << 20}, {12, 5 << 20}, {16, 6 << 20}, {48, 14 << 20}} {
		sys := NewSystem(Config{DeviceBytes: 1 << 20, CacheBytes: 2<<20 + c.workers*(256<<10)})
		if got := bytesOf(sys.Cache); got != c.bytes {
			t.Errorf("%d workers: shared cache holds %d B, want %d", c.workers, got, c.bytes)
		}
		sys.Space.EnterGroup(c.workers)
		if got, want := bytesOf(sys.Space.parts[0]), c.bytes/c.workers/set*set; got != want {
			t.Errorf("%d workers: a group partition holds %d B, want %d", c.workers, got, want)
		}
	}
}

// TestSetForIsExact: setFor reduces the hash's low 32 bits mod the set
// count, and for a power-of-two count that is the mask a power-of-two cache
// used, so such caches index exactly as they did.
func TestSetForIsExact(t *testing.T) {
	hash := func(la uint64) uint64 {
		x := la / LineSize
		x ^= x >> 17
		x *= 0xff51afd7ed558ccd
		return x ^ x>>33
	}
	rng := rand.New(rand.NewSource(1))
	check := func(nsets uint64, want func(x uint64) uint64) {
		c := newCache(nil, &Stats{}, EADR, int(nsets)*LineSize, 1, 1<<40, true)
		if c.nsets != nsets {
			t.Fatalf("a %d-line direct-mapped cache has %d sets", nsets, c.nsets)
		}
		for i := 0; i < 1000; i++ {
			la := rng.Uint64() % (1 << 40) &^ (LineSize - 1)
			if got, w := c.setFor(la), want(hash(la)); got != w {
				t.Fatalf("%d sets: line %#x maps to set %d, want %d", nsets, la, got, w)
			}
		}
	}
	for n := uint64(1); n <= 1<<20; n <<= 1 {
		check(n, func(x uint64) uint64 { return x & (n - 1) })
	}
	for i := 0; i < 20; i++ {
		n := 1 + rng.Uint64()%(1<<20)
		check(n, func(x uint64) uint64 { return uint64(uint32(x)) % n })
	}
}
