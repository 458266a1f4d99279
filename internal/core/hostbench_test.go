package core

import (
	"testing"

	"falcon/internal/sim"
)

// BenchmarkHotSetProbe measures the HOST cost of one hot-set probe at the
// default capacity (256), the per-written-tuple decision of selective flush:
// a seeded stream over 512 slots of three tables, so about half the probes
// hit and the misses evict. Like the pmem host benchmarks it times the
// simulation, not the simulated machine; a probe must not allocate.
func BenchmarkHotSetProbe(b *testing.B) {
	h := testHotSet(256)
	clk := sim.NewClock()
	keys := make([]uint64, 4096)
	state := uint64(1)
	for i := range keys {
		state = state*6364136223846793005 + 1442695040888963407
		keys[i] = state >> 33 % (3 * 512)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		h.probe(clk, uint8(k%3), k/3)
	}
}
