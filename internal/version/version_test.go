package version

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"falcon/internal/sim"
)

func newStore() *Store {
	return NewStore(16, 2)
}

func TestPublishAndReadVisible(t *testing.T) {
	s := newStore()
	clk := sim.NewClock()
	// Tuple history: payload "v1" written at ts 10, overwritten at ts 20 by
	// "v2", overwritten at ts 30. Chain holds [v2: 20..30] -> [v1: 10..20].
	s.Publish(clk, 0, 5, 10, 20, []byte("v1"))
	s.Publish(clk, 0, 5, 20, 30, []byte("v2"))

	if v := s.ReadVisible(clk, 5, 15); v == nil || !bytes.Equal(v.Data, []byte("v1")) {
		t.Fatalf("snapshot 15 read %v, want v1", v)
	}
	if v := s.ReadVisible(clk, 5, 25); v == nil || !bytes.Equal(v.Data, []byte("v2")) {
		t.Fatalf("snapshot 25 read %v, want v2", v)
	}
	// Snapshot 35 is newer than every version: the NVM tuple applies.
	if v := s.ReadVisible(clk, 5, 35); v != nil {
		t.Fatalf("snapshot 35 read old version %v, want nil (NVM tuple)", v)
	}
	// Snapshot 5 predates tuple creation entirely.
	if v := s.ReadVisible(clk, 5, 5); v != nil {
		t.Fatalf("snapshot 5 read %v, want nil", v)
	}
}

func TestGCReclaimsPrefixOnly(t *testing.T) {
	s := newStore()
	s.Threshold = 0
	clk := sim.NewClock()
	s.Publish(clk, 0, 3, 10, 20, []byte("a"))
	s.Publish(clk, 0, 3, 20, 30, []byte("b"))
	s.Publish(clk, 0, 3, 30, 40, []byte("c"))
	if n := s.ChainLen(3); n != 3 {
		t.Fatalf("chain len %d, want 3", n)
	}
	// A transaction at TID 35 is still running: versions with EndTS < 35
	// (a: 20, b: 30) are reclaimable, c (EndTS 40) is not.
	got := s.MaybeGC(clk, 0, 35)
	if got != 2 {
		t.Fatalf("GC reclaimed %d, want 2", got)
	}
	if n := s.ChainLen(3); n != 1 {
		t.Fatalf("chain len after GC %d, want 1", n)
	}
	if v := s.ReadVisible(clk, 3, 35); v == nil || !bytes.Equal(v.Data, []byte("c")) {
		t.Fatal("survivor version lost")
	}
}

func TestGCRespectsThreshold(t *testing.T) {
	s := newStore()
	s.Threshold = 10
	clk := sim.NewClock()
	for i := uint64(0); i < 5; i++ {
		s.Publish(clk, 0, 1, i*10, i*10+10, []byte("x"))
	}
	if n := s.MaybeGC(clk, 0, math.MaxUint64); n != 0 {
		t.Fatalf("GC ran below threshold (reclaimed %d)", n)
	}
	if n := s.ForceGC(clk, 0, math.MaxUint64); n != 5 {
		t.Fatalf("ForceGC reclaimed %d, want 5", n)
	}
}

func TestResetDropsEverything(t *testing.T) {
	s := newStore()
	clk := sim.NewClock()
	s.Publish(clk, 1, 2, 1, 2, []byte("x"))
	s.Reset()
	if s.ChainLen(2) != 0 || s.QueueLen(1) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestConcurrentPublishAndRead(t *testing.T) {
	s := NewStore(4, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := sim.NewClock()
			for i := uint64(0); i < 200; i++ {
				ts := i*4 + uint64(w)
				s.Publish(clk, w, uint64(w), ts, ts+1, []byte{byte(w)})
				s.ReadVisible(clk, uint64((w+1)%4), ts)
				s.MaybeGC(clk, w, ts/2)
			}
		}(w)
	}
	wg.Wait()
}

func TestVersionChargesVirtualTime(t *testing.T) {
	s := newStore()
	clk := sim.NewClock()
	s.Publish(clk, 0, 0, 1, 2, make([]byte, 1024))
	if clk.Nanos() == 0 {
		t.Fatal("Publish charged no virtual time")
	}
}
