package pmem

import (
	"testing"

	"falcon/internal/sim"
)

// Host-cost benchmarks for the simulated memory system. Everything here
// measures HOST nanoseconds per simulated operation — the cost of running
// the simulation itself, which bounds how big a sweep fits in a CI budget.
// Virtual-time results are unaffected by any of this.
//
// The loop shapes (64 B ops striding a 32 MiB working set on a 64 MiB
// device) match `falcon hostbench` so `go test -bench` and the tracked
// BENCH_hostperf.json baseline measure the same thing.

func hostbenchSystem() *System {
	return NewSystem(Config{DeviceBytes: 64 << 20, CacheBytes: 2 << 20})
}

func BenchmarkHostStore64(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Write(clk, uint64(i*64)%(32<<20), buf)
	}
}

func BenchmarkHostLoad64(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Read(clk, uint64(i*64)%(32<<20), buf)
	}
}

func BenchmarkHostStoreCLWB64(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i*64) % (32 << 20)
		sys.Space.Write(clk, a, buf)
		sys.Space.CLWB(clk, a, 64)
	}
}

// BenchmarkHostStore64Hit keeps the working set inside the simulated cache,
// isolating the hit path (set lookup + copy) from eviction and fill.
func BenchmarkHostStore64Hit(b *testing.B) {
	sys := hostbenchSystem()
	clk := sim.NewClock()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Space.Write(clk, uint64(i*64)%(1<<20), buf)
	}
}
