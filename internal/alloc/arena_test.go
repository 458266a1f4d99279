package alloc

import (
	"errors"
	"sync"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func testSpace() *pmem.System {
	return pmem.NewSystem(pmem.Config{DeviceBytes: 32 << 20})
}

func TestArenaAllocSequential(t *testing.T) {
	sys := testSpace()
	clk := sim.NewClock()
	a, err := NewArena(sys.Space, 0, 4096, sys.Space.Size())
	if err != nil {
		t.Fatal(err)
	}
	o1, err := a.Alloc(clk, 100)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(clk, 100)
	if err != nil {
		t.Fatal(err)
	}
	if o1 < 4096 || o2 <= o1 || o1%pmem.BlockSize != 0 || o2%pmem.BlockSize != 0 {
		t.Fatalf("bad offsets %d, %d", o1, o2)
	}
	if o2 < o1+100 {
		t.Fatal("allocations overlap")
	}
}

// TestArenaBlockAlignment: every region starts on a media block, whatever the
// size of the one before it and wherever the arena starts.
func TestArenaBlockAlignment(t *testing.T) {
	sys := testSpace()
	clk := sim.NewClock()
	a, _ := NewArena(sys.Space, 0, 4096+64, sys.Space.Size())
	for _, n := range []uint64{1, 64, 100, 256, 320, 4096, 1} {
		off, err := a.Alloc(clk, n)
		if err != nil {
			t.Fatal(err)
		}
		if off%pmem.BlockSize != 0 {
			t.Fatalf("%d-byte region at %d is not on a %d B block", n, off, pmem.BlockSize)
		}
	}
}

func TestArenaOutOfSpace(t *testing.T) {
	sys := testSpace()
	clk := sim.NewClock()
	a, _ := NewArena(sys.Space, 0, 4096, 8192)
	if _, err := a.Alloc(clk, 10000); !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("err = %v, want ErrOutOfSpace", err)
	}
}

func TestArenaReopenAfterCrash(t *testing.T) {
	sys := testSpace()
	clk := sim.NewClock()
	a, _ := NewArena(sys.Space, 0, 4096, sys.Space.Size())
	o1, _ := a.Alloc(clk, 1000)

	sys2 := sys.Crash()
	b, err := OpenArena(sys2.Space, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := b.Alloc(clk, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if o2 < o1+1000 {
		t.Fatalf("post-crash allocation %d overlaps pre-crash region [%d,%d)", o2, o1, o1+1000)
	}
}

func TestArenaConcurrentAllocDisjoint(t *testing.T) {
	sys := testSpace()
	a, _ := NewArena(sys.Space, 0, 4096, sys.Space.Size())
	const workers, per = 8, 50
	offs := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := sim.NewClock()
			for i := 0; i < per; i++ {
				off, err := a.Alloc(clk, 256)
				if err != nil {
					t.Error(err)
					return
				}
				offs[w] = append(offs[w], off)
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, list := range offs {
		for _, off := range list {
			if seen[off] {
				t.Fatalf("offset %d allocated twice", off)
			}
			seen[off] = true
		}
	}
}

func TestOpenArenaRejectsGarbage(t *testing.T) {
	sys := testSpace()
	if _, err := OpenArena(sys.Space, sim.NewClock(), 0); err == nil {
		t.Fatal("OpenArena accepted an unformatted device")
	}
}
