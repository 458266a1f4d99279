package index

import (
	"math/rand"
	"sync"
	"testing"

	"falcon/internal/sim"
)

// TestBTreeReadsBesideChurn runs lock-free readers and scanners beside two
// writers on one tree. The permanent keys (multiples of stride) never change;
// each writer fills a gap between two of them with an ascending run of keys
// and deletes the run again, so whole leaves fill, empty, leave the tree and
// are reused under the readers' feet. Every Get of a permanent key must find
// it, every Scan must ascend and deliver each permanent key in its range
// exactly once, and the tree must be sound at the end. Each goroutine works
// through a finger of its own (Finger.On), which the others' splits and
// unlinks keep leaving behind. Run it under -race with GOMAXPROCS > 1 (make
// race-par).
func TestBTreeReadsBesideChurn(t *testing.T) {
	const (
		perm   = 500
		stride = 1 << 10
		run    = 150 // ten full leaves per round and writer
		want   = 30  // permanent keys one scan checks
	)
	gets, scans, rounds := 150000, 4000, 200
	if testing.Short() {
		gets, scans, rounds = 30000, 800, 40
	}
	bt, err := NewBTree(newSys().Space, 0, 4*(perm+2*run))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < perm; k++ {
		if err := bt.Insert(sim.NewClock(), k*stride, k*stride+1); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var fingers [6]Finger // one per goroutine
	started := 0
	start := func(seed int64, fn func(clk *sim.Clock, rng *rand.Rand, bt Index)) {
		wg.Add(1)
		f := &fingers[started]
		started++
		go func() {
			defer wg.Done()
			fn(sim.NewClock(), rand.New(rand.NewSource(seed)), f.On(bt))
		}()
	}
	for w := uint64(0); w < 2; w++ {
		start(int64(w), func(clk *sim.Clock, rng *rand.Rand, bt Index) {
			for r := 0; r < rounds; r++ {
				base := uint64(rng.Intn(perm))*stride + 1 + w*stride/2
				for k := base; k < base+run; k++ {
					if err := bt.Insert(clk, k, k+1); err != nil {
						t.Errorf("insert %d: %v", k, err)
						return
					}
				}
				for _, i := range rng.Perm(run) {
					if !bt.Delete(clk, base+uint64(i)) {
						t.Errorf("delete %d: not found", base+uint64(i))
						return
					}
				}
			}
		})
	}
	for r := int64(0); r < 2; r++ {
		start(10+r, func(clk *sim.Clock, rng *rand.Rand, bt Index) {
			for i := 0; i < gets; i++ {
				k := uint64(rng.Intn(perm)) * stride
				if v, ok := bt.Get(clk, k); !ok || v != k+1 {
					t.Errorf("Get(%d) = %d, %v", k, v, ok)
					return
				}
			}
		})
		start(20+r, func(clk *sim.Clock, rng *rand.Rand, bt Index) {
			for i := 0; i < scans; i++ {
				from := uint64(rng.Intn(perm * stride))
				next := (from + stride - 1) / stride * stride // the permanent key due
				last, seen := from, 0
				err := bt.Scan(clk, from, func(k, v uint64) bool {
					if k < last || v != k+1 {
						t.Errorf("scan from %d: key %d value %d after %d", from, k, v, last)
						return false
					}
					last = k + 1
					if k%stride == 0 || k > next {
						if k != next {
							t.Errorf("scan from %d: key %d, permanent key %d is due", from, k, next)
							return false
						}
						next += stride
						seen++
					}
					return seen < want
				})
				if err != nil {
					t.Errorf("scan from %d: %v", from, err)
				}
				if seen < want && next != perm*stride {
					t.Errorf("scan from %d ended before permanent key %d", from, next)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkSound(t, bt)
	ref := make(map[uint64]uint64, perm)
	for k := uint64(0); k < perm; k++ {
		ref[k*stride] = k*stride + 1
	}
	checkAgainstModel(t, bt, ref, 0)
	var hits, misses uint64
	for _, f := range fingers {
		hits, misses = hits+f.Hits, misses+f.Misses
	}
	t.Logf("%d reads restarted; fingers hit %d times and missed %d", bt.Restarts(), hits, misses)
	if hits == 0 {
		t.Error("no operation started at a finger")
	}
}
