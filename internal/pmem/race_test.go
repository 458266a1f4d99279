package pmem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"falcon/internal/sim"
)

// TestSharedCacheSpanStress runs two workers against one shared 4-way cache
// of eight sets: multi-line loads and stores whose spans interleave line by
// line with the other worker's, flush trains over both workers' lines, and a
// region several times the cache so every walk evicts. Under -race (the
// race and race-par lanes) it proves the touch pass ahead of a span walk
// reads set blocks only through atomics while the other worker rewrites
// them under their locks; in any mode it checks that no byte was lost.
//
// Worker g owns the 200 B chunks with index ≡ g (mod 2) — chunks are not
// line-aligned, so most lines hold bytes of both workers — and stamps each
// with a per-round value; loads cover a chunk and both of its neighbours.
func TestSharedCacheSpanStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const chunk, chunks, region = 200, 160, 200 * 160
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	sys := NewSystem(Config{Mode: ADR, DeviceBytes: 1 << 20, CacheBytes: 2 << 10, CacheWays: 4,
		XPBufferBytes: 2 << 10, XPBanks: 2})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clk := sim.NewWorkerClock(g)
			st := uint64(g + 1)
			buf, got := make([]byte, chunk), make([]byte, 3*chunk)
			for r := 1; r <= rounds; r++ {
				for c := g; c < chunks; c += 2 {
					for i := range buf {
						buf[i] = byte(r + c)
					}
					off := uint64(c * chunk)
					sys.Space.Write(clk, off, buf)
					if rng(&st)%4 == 0 {
						lo := max(c-1, 0) * chunk
						hi := min(c+2, chunks) * chunk
						sys.Space.Read(clk, uint64(lo), got[:hi-lo])
						if mine := got[c*chunk-lo:][:chunk]; !bytes.Equal(mine, buf) {
							t.Errorf("worker %d round %d: chunk %d read back wrong", g, r, c)
							return
						}
					}
					if rng(&st)%8 == 0 {
						far := rng(&st) % (region - 1024)
						sys.Space.CLWBTrain(clk, []Span{{Off: off, N: chunk}, {Off: far, N: 1024}})
						sys.Space.SFence(clk)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	clk := sim.NewClock()
	got := make([]byte, region)
	sys.Space.Read(clk, 0, got)
	for c := 0; c < chunks; c++ {
		for i, b := range got[c*chunk:][:chunk] {
			if b != byte(rounds+c) {
				t.Fatalf("chunk %d byte %d = %d after the run, want %d", c, i, b, byte(rounds+c))
			}
		}
	}
}
