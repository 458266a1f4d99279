package pmem

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestGroupModeTimingDeterminism: three goroutines taking turns on one
// shared system under a sim.Group token make the same accesses at the same
// virtual times whatever the host does, so the golden run's group row comes
// out the same at GOMAXPROCS 1 and 4.
func TestGroupModeTimingDeterminism(t *testing.T) {
	var prints []string
	for _, procs := range []int{1, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		prints = append(prints, goldenRun(t, 8, EADR, true))
		runtime.GOMAXPROCS(prev)
	}
	for _, p := range prints[1:] {
		if p != prints[0] {
			t.Fatalf("the token-scheduled run differs across host schedules:\n %s\n %s", prints[0], p)
		}
	}
}

// TestCacheShare: a cache holds the bytes it is configured with, in whole
// sets. On the figures' cache (2 MiB + 256 KiB per worker) it holds 2.5 / 3 /
// 4 / 5 / 6 / 14 MiB at 2 / 4 / 8 / 12 / 16 / 48 workers, in free-running and
// group mode alike, and an odd size rounds down to whole 16-way sets.
func TestCacheShare(t *testing.T) {
	bytesOf := func(c *Cache) int { return int(c.nsets) * c.ways * LineSize }
	const set = 16 * LineSize
	for _, c := range []struct{ workers, bytes int }{{2, 5 << 19}, {4, 3 << 20}, {8, 4 << 20}, {12, 5 << 20}, {16, 6 << 20}, {48, 14 << 20}} {
		sys := NewSystem(Config{DeviceBytes: 1 << 20, CacheBytes: 2<<20 + c.workers*(256<<10)})
		if got := bytesOf(sys.Cache); got != c.bytes {
			t.Errorf("%d workers: the cache holds %d B, want %d", c.workers, got, c.bytes)
		}
	}
	sys := NewSystem(Config{DeviceBytes: 1 << 20, CacheBytes: 3<<20/4 + 100})
	if got, want := bytesOf(sys.Cache), 3<<20/4/set*set; got != want {
		t.Errorf("a %d B cache holds %d B, want %d", 3<<20/4+100, got, want)
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
		c := newCache(nil, &Stats{}, EADR, int(nsets)*LineSize, 1, 1<<40)
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
