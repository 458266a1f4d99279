package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// modelOps drives a tree and a reference map through one batch of a
// delete-heavy stream. Besides random inserts and deletes it drains whole key
// ranges and refills them in key order, so that leaves empty out and leave
// the tree, inner nodes lose their last child, the root hands over to its
// only child, freed nodes come back and splits happen at the end of a node.
// It reports whether every result matched the model.
func modelOps(rng *rand.Rand, bt *BTreeIndex, ref map[uint64]uint64, keySpace int) bool {
	clk := sim.NewClock()
	del := func(k uint64) bool {
		_, want := ref[k]
		delete(ref, k)
		return bt.Delete(clk, k) == want
	}
	ins := func(k uint64) bool {
		err := bt.Insert(clk, k, k*7)
		if _, dup := ref[k]; dup {
			return err == ErrDuplicate
		}
		ref[k] = k * 7
		return err == nil
	}
	lo := rng.Intn(keySpace)
	hi := lo + rng.Intn(keySpace-lo) + 1
	switch rng.Intn(6) {
	case 0: // drain a range from the front, as Delivery drains a district
		for k := lo; k < hi; k++ {
			if !del(uint64(k)) {
				return false
			}
		}
	case 1: // drain a range from the back
		for k := hi - 1; k >= lo; k-- {
			if !del(uint64(k)) {
				return false
			}
		}
	case 2: // refill a range in key order
		for k := lo; k < hi; k++ {
			if !ins(uint64(k)) {
				return false
			}
		}
	case 3: // drain everything
		for k := range ref {
			if !del(k) {
				return false
			}
		}
	default: // random mix
		for i := 0; i < 1500; i++ {
			k := uint64(rng.Intn(keySpace))
			if rng.Intn(3) == 0 {
				if !del(k) {
					return false
				}
			} else if !ins(k) {
				return false
			}
		}
	}
	return true
}

// TestQuickBTreeScanMatchesSortedReference: after every batch of an
// arbitrary insert/delete stream, a range scan must return exactly the live
// keys in order and the tree must be sound.
func TestQuickBTreeScanMatchesSortedReference(t *testing.T) {
	const keySpace = 6000 // 400 full leaves: three levels
	fired := treeReport{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
		bt, err := NewBTree(sys.Space, 0, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]uint64{}
		for batch := 0; batch < 12; batch++ {
			if !modelOps(rng, bt, ref, keySpace) {
				return false
			}
			checkAgainstModel(t, bt, ref, uint64(rng.Intn(keySpace)))
			rep := checkSound(t, bt)
			if live := uint64(rep.leaves + rep.inner); bt.nextFree.Load()-uint64(rep.free) != live {
				t.Fatalf("nextFree %d - %d free != %d live nodes", bt.nextFree.Load(), rep.free, live)
			}
			fired.free = max(fired.free, rep.free)
			fired.depth = max(fired.depth, rep.depth)
		}
		return true
	}
	streams := 20
	if testing.Short() {
		streams = 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: streams}); err != nil {
		t.Fatal(err)
	}
	if fired.free == 0 || fired.depth < 2 {
		t.Fatalf("streams never freed a node or never grew three levels: %+v", fired)
	}
}

// TestQuickHashSurvivesCrashImage: after random mutations and an eADR
// crash, the reopened hash index must serve exactly the reference contents.
func TestQuickHashSurvivesCrashImage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
		h, err := NewHash(sys.Space, 0, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock()
		ref := map[uint64]uint64{}
		for i := 0; i < 1500; i++ {
			k := uint64(rng.Intn(2500))
			switch rng.Intn(4) {
			case 0:
				if h.Delete(clk, k) != (func() bool { _, ok := ref[k]; return ok })() {
					return false
				}
				delete(ref, k)
			case 1:
				v := uint64(rng.Int63())
				if h.Update(clk, k, v) {
					ref[k] = v
				}
			default:
				v := uint64(rng.Int63())
				if err := h.Insert(clk, k, v); err == nil {
					ref[k] = v
				}
			}
		}
		h2, err := OpenHash(sys.Crash().Space, clk, 0)
		if err != nil {
			return false
		}
		for k := uint64(0); k < 2500; k++ {
			got, ok := h2.Get(clk, k)
			want, exists := ref[k]
			if ok != exists || (ok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
