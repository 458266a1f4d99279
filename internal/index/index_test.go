package index

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func newSys() *pmem.System {
	return pmem.NewSystem(pmem.Config{DeviceBytes: 128 << 20})
}

// build creates each index kind for table-driven tests.
func buildIndexes(t *testing.T, capacity uint64) map[string]Index {
	t.Helper()
	sys := newSys()
	h, err := NewHash(sys.Space, 0, capacity)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBTree(sys.Space, 32<<20, capacity)
	if err != nil {
		t.Fatal(err)
	}
	cost := sim.DefaultCostModel()
	dh, err := NewHash(pmem.NewDRAM(32<<20, cost), 0, capacity)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewBTree(pmem.NewDRAM(64<<20, cost), 0, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Index{"hash-nvm": h, "btree-nvm": bt, "hash-dram": dh, "btree-dram": db}
}

func TestIndexBasicOps(t *testing.T) {
	for name, idx := range buildIndexes(t, 10000) {
		t.Run(name, func(t *testing.T) {
			clk := sim.NewClock()
			if _, ok := idx.Get(clk, 5); ok {
				t.Fatal("empty index returned a value")
			}
			if err := idx.Insert(clk, 5, 50); err != nil {
				t.Fatal(err)
			}
			if err := idx.Insert(clk, 5, 51); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("duplicate insert err = %v", err)
			}
			if v, ok := idx.Get(clk, 5); !ok || v != 50 {
				t.Fatalf("Get = %d,%v", v, ok)
			}
			if !idx.Update(clk, 5, 99) {
				t.Fatal("Update of existing key failed")
			}
			if v, _ := idx.Get(clk, 5); v != 99 {
				t.Fatalf("after Update, Get = %d", v)
			}
			if idx.Update(clk, 6, 1) {
				t.Fatal("Update of missing key succeeded")
			}
			if !idx.Delete(clk, 5) {
				t.Fatal("Delete failed")
			}
			if idx.Delete(clk, 5) {
				t.Fatal("double Delete succeeded")
			}
			if _, ok := idx.Get(clk, 5); ok {
				t.Fatal("deleted key still present")
			}
		})
	}
}

func TestIndexMatchesReferenceMap(t *testing.T) {
	for name, idx := range buildIndexes(t, 20000) {
		t.Run(name, func(t *testing.T) {
			clk := sim.NewClock()
			rng := rand.New(rand.NewSource(7))
			ref := map[uint64]uint64{}
			for step := 0; step < 20000; step++ {
				key := uint64(rng.Intn(4000))
				switch rng.Intn(4) {
				case 0, 1: // insert
					err := idx.Insert(clk, key, key*3)
					if _, exists := ref[key]; exists {
						if !errors.Is(err, ErrDuplicate) {
							t.Fatalf("step %d: insert dup err = %v", step, err)
						}
					} else if err != nil {
						t.Fatalf("step %d: insert err = %v", step, err)
					} else {
						ref[key] = key * 3
					}
				case 2: // delete
					got := idx.Delete(clk, key)
					_, exists := ref[key]
					if got != exists {
						t.Fatalf("step %d: delete(%d) = %v, want %v", step, key, got, exists)
					}
					delete(ref, key)
				case 3: // update
					got := idx.Update(clk, key, key+1)
					_, exists := ref[key]
					if got != exists {
						t.Fatalf("step %d: update(%d) = %v, want %v", step, key, got, exists)
					}
					if exists {
						ref[key] = key + 1
					}
				}
			}
			// verify compares every key of the key space with the model; a
			// B-tree must also be sound and scan the model's keys in order.
			verify := func(when string) {
				t.Helper()
				for k := uint64(0); k < 4000; k++ {
					got, ok := idx.Get(clk, k)
					if want, exists := ref[k]; ok != exists || got != want {
						t.Fatalf("%s: Get(%d) = %d,%v want %d,%v", when, k, got, ok, want, exists)
					}
				}
				if bt, ok := idx.(*BTreeIndex); ok {
					checkSound(t, bt)
					checkAgainstModel(t, bt, ref, 0)
				}
			}
			verify("after the random mix")
			// Delete-heavy: drain whole key ranges and refill them, so B-tree
			// leaves and inner nodes leave the tree and their nodes come back.
			for round, r := range [][2]uint64{{1000, 3000}, {0, 4000}, {500, 3500}, {0, 4000}} {
				for k := r[0]; k < r[1]; k++ {
					_, exists := ref[k]
					if got := idx.Delete(clk, k); got != exists {
						t.Fatalf("round %d: delete(%d) = %v, want %v", round, k, got, exists)
					}
					delete(ref, k)
				}
				verify("after a drain")
				for k := r[0]; k < r[1]; k += uint64(round + 1) {
					if err := idx.Insert(clk, k, k+9); err != nil {
						t.Fatalf("round %d: refill insert(%d): %v", round, k, err)
					}
					ref[k] = k + 9
				}
				verify("after a refill")
			}
		})
	}
}

func TestBTreeScanOrder(t *testing.T) {
	sys := newSys()
	bt, _ := NewBTree(sys.Space, 0, 100000)
	clk := sim.NewClock()
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(5000)
	for _, k := range keys {
		if err := bt.Insert(clk, uint64(k)*2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := bt.Scan(clk, 0, func(k, v uint64) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000 {
		t.Fatalf("scan visited %d keys, want 5000", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan out of order")
	}
}

func TestBTreeScanFromMidAndEarlyStop(t *testing.T) {
	sys := newSys()
	bt, _ := NewBTree(sys.Space, 0, 10000)
	clk := sim.NewClock()
	for k := uint64(0); k < 100; k++ {
		bt.Insert(clk, k*10, k)
	}
	var got []uint64
	bt.Scan(clk, 305, func(k, v uint64) bool {
		got = append(got, k)
		return len(got) < 5
	})
	want := []uint64{310, 320, 330, 340, 350}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestHashScanUnsupported(t *testing.T) {
	sys := newSys()
	h, _ := NewHash(sys.Space, 0, 100)
	if err := h.Scan(sim.NewClock(), 0, nil); !errors.Is(err, ErrUnordered) {
		t.Fatalf("err = %v, want ErrUnordered", err)
	}
}

func TestIndexesSurviveCrash(t *testing.T) {
	sys := newSys()
	clk := sim.NewClock()
	h, _ := NewHash(sys.Space, 0, 10000)
	bt, _ := NewBTree(sys.Space, 32<<20, 10000)
	for k := uint64(0); k < 2000; k++ {
		h.Insert(clk, k, k+1)
		bt.Insert(clk, k, k+2)
	}
	sys2 := sys.Crash()

	h2, err := OpenHash(sys2.Space, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	bt2, err := OpenBTree(sys2.Space, clk, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if v, ok := h2.Get(clk, k); !ok || v != k+1 {
			t.Fatalf("hash lost key %d after crash (got %d,%v)", k, v, ok)
		}
		if v, ok := bt2.Get(clk, k); !ok || v != k+2 {
			t.Fatalf("btree lost key %d after crash (got %d,%v)", k, v, ok)
		}
	}
	// Instant recovery must also keep allocation state: inserting new keys
	// must not corrupt existing ones.
	for k := uint64(2000); k < 2500; k++ {
		if err := bt2.Insert(clk, k, k); err != nil {
			t.Fatal(err)
		}
		if err := h2.Insert(clk, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 2500; k++ {
		if _, ok := bt2.Get(clk, k); !ok {
			t.Fatalf("btree key %d lost after post-crash inserts", k)
		}
	}
}

func TestIndexConcurrentDisjointWriters(t *testing.T) {
	sys := newSys()
	h, _ := NewHash(sys.Space, 0, 100000)
	bt, _ := NewBTree(sys.Space, 64<<20, 100000)
	for _, idx := range []Index{h, bt} {
		const workers, per = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				clk := sim.NewClock()
				for i := 0; i < per; i++ {
					k := uint64(w*per + i)
					if err := idx.Insert(clk, k, k^7); err != nil {
						t.Errorf("insert %d: %v", k, err)
						return
					}
					if v, ok := idx.Get(clk, k); !ok || v != k^7 {
						t.Errorf("readback %d failed", k)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		clk := sim.NewClock()
		for k := uint64(0); k < workers*per; k++ {
			if _, ok := idx.Get(clk, k); !ok {
				t.Fatalf("%s: key %d missing after concurrent inserts", idx.Kind(), k)
			}
		}
	}
}

func TestHashFillToCapacityAndErrFull(t *testing.T) {
	sys := newSys()
	// Tiny index: 64 buckets minimum * 15 entries = 960 capacity.
	h, _ := NewHash(sys.Space, 0, 10)
	clk := sim.NewClock()
	inserted := uint64(0)
	for k := uint64(0); k < 5000; k++ {
		if err := h.Insert(clk, k, k); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			break
		}
		inserted++
	}
	if inserted < 500 {
		t.Fatalf("only %d keys fit before ErrFull; probing too weak", inserted)
	}
	for k := uint64(0); k < inserted; k++ {
		if _, ok := h.Get(clk, k); !ok {
			t.Fatalf("key %d lost in a nearly-full table", k)
		}
	}
}

func TestNVMIndexChargesMoreThanDRAM(t *testing.T) {
	capacity := uint64(50000)
	sys := newSys()
	nvm, _ := NewBTree(sys.Space, 0, capacity)
	dram, _ := NewBTree(pmem.NewDRAM(64<<20, sim.DefaultCostModel()), 0, capacity)

	run := func(idx Index) uint64 {
		clk := sim.NewClock()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20000; i++ {
			idx.Insert(clk, uint64(rng.Int63()), 1)
		}
		return clk.Nanos()
	}
	nvmT := run(nvm)
	dramT := run(dram)
	if nvmT <= dramT {
		t.Fatalf("NVM index (%d ns) not slower than DRAM index (%d ns)", nvmT, dramT)
	}
}

// leafImage is one chained leaf as the sizing adversary sees it.
type leafImage struct {
	keys []uint64
	next uint64 // first key of the following leaf, or the largest key there is
}

// chainImages walks the leaf chain from the tree's first leaf.
func chainImages(t *BTreeIndex) []leafImage {
	clk := sim.NewClock()
	w := new(treeWalk)
	n, _ := t.descend(clk, 0, w, false)
	var out []leafImage
	for {
		img := leafImage{next: ^uint64(0)}
		for i := 0; i < n.count(); i++ {
			img.keys = append(img.keys, n.key(i))
		}
		if len(out) > 0 && len(img.keys) > 0 {
			out[len(out)-1].next = img.keys[0]
		}
		out = append(out, img)
		nxt, ok := n.next()
		if !ok {
			return out
		}
		n = t.loadInto(clk, nxt, n)
	}
}

// TestBTreeSizedForWorstCaseFill: a tree built for capacity keys takes
// capacity inserts in any order without ErrFull — the heap of the table it
// indexes is what fills first. Ascending keys leave full leaves; the stream
// that plays splits at the end of a node against splits in the middle gets
// the fewest keys per leaf there are, and still fits.
func TestBTreeSizedForWorstCaseFill(t *testing.T) {
	const capacity = 20000
	fill := func(name string, key func(i int) uint64) *BTreeIndex {
		bt, err := NewBTree(newSys().Space, 0, capacity)
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock()
		for i := 0; i < capacity; i++ {
			if err := bt.Insert(clk, key(i), uint64(i)); err != nil {
				t.Fatalf("%s: insert %d of %d: %v", name, i, capacity, err)
			}
		}
		checkSound(t, bt)
		return bt
	}
	asc := fill("ascending", func(i int) uint64 { return uint64(i) })
	if leaves, limit := checkSound(t, asc).leaves, capacity/14; leaves > limit {
		t.Fatalf("ascending keys: %d leaves for %d keys, want at most %d (full leaves)", leaves, capacity, limit)
	}
	fill("descending", func(i int) uint64 { return uint64(capacity - i) })
	rng := rand.New(rand.NewSource(5))
	fill("random", func(int) uint64 { return rng.Uint64() })

	// The adversary: bring a leaf to 15 keys with keys after its last, split
	// it at the end with one more, then split the full leaf in the middle.
	bt, err := NewBTree(newSys().Space, 0, capacity)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	inserted := 0
	insert := func(k uint64) {
		if inserted == capacity {
			return
		}
		if err := bt.Insert(clk, k, 0); err != nil {
			t.Fatalf("adversary: insert %d of %d: %v", inserted, capacity, err)
		}
		inserted++
	}
	for i := uint64(1); i <= 8; i++ {
		insert(i << 59)
	}
	for inserted < capacity {
		before := inserted
		for _, leaf := range chainImages(bt) {
			c := len(leaf.keys)
			if c < 7 || c == nodeEntries {
				continue
			}
			last := leaf.keys[c-1]
			step := (leaf.next - last) / 32
			mid := leaf.keys[3] + (leaf.keys[4]-leaf.keys[3])/2
			if step == 0 || mid == leaf.keys[3] {
				continue // no room left between these keys
			}
			for j := 1; j <= nodeEntries-c+1; j++ {
				insert(last + uint64(j)*step)
			}
			insert(mid)
		}
		if inserted == before {
			t.Fatalf("adversary ran out of key space after %d inserts", inserted)
		}
	}
	rep := checkSound(t, bt)
	perLeaf := float64(capacity) / float64(rep.leaves)
	t.Logf("adversary: %d keys in %d leaves (%.2f per leaf) and %d inner nodes, %d of %d nodes", capacity, rep.leaves, perLeaf, rep.inner, bt.nextFree.Load(), bt.cap)
	if perLeaf > 5.5 {
		t.Fatalf("adversary reached only %.2f keys per leaf, the sizing argument says 4.5", perLeaf)
	}
}

// TestDrainedRangesLeaveNoEmptyLeaves plays TPC-C's new_order table: twenty
// key ranges, each appended to at its end and drained from its front. The
// walk Scan makes from the start of a range to the range's first key must
// never pass an empty leaf, and the tree must stay as small as its live keys.
func TestDrainedRangesLeaveNoEmptyLeaves(t *testing.T) {
	const ranges, rounds = 20, 60_000
	bt, err := NewBTree(newSys().Space, 0, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	rng := rand.New(rand.NewSource(9))
	var head, tail [ranges]uint64 // live keys of range r: r<<32 | [head, tail)
	w := new(treeWalk)
	hops, emptyHops, maxNodes := 0, 0, uint64(0)
	for round := 0; round < rounds; round++ {
		r := uint64(rng.Intn(ranges))
		if err := bt.Insert(clk, r<<32|tail[r], tail[r]); err != nil {
			t.Fatal(err)
		}
		tail[r]++
		if rng.Intn(10) == 0 {
			continue // arrivals outpace deliveries a little
		}
		r = uint64(rng.Intn(ranges))
		// Delivery: find the oldest key of range r as Scan does, then delete it.
		n, _ := bt.descend(clk, r<<32, w, false)
		i, _ := n.searchLeaf(r << 32)
		for i == n.count() {
			nxt, ok := n.next()
			if !ok {
				break
			}
			n, i = bt.loadInto(clk, nxt, n), 0
			hops++
			if n.count() == 0 {
				emptyHops++
			}
		}
		if head[r] < tail[r] {
			if i == n.count() || n.key(i) != r<<32|head[r] {
				t.Fatalf("round %d: oldest key of range %d not found", round, r)
			}
			if !bt.Delete(clk, r<<32|head[r]) {
				t.Fatalf("round %d: delete of %d/%d failed", round, r, head[r])
			}
			head[r]++
		}
		maxNodes = max(maxNodes, bt.nextFree.Load())
	}
	if emptyHops != 0 {
		t.Fatalf("%d of %d leaf-to-leaf hops landed on an empty leaf", emptyHops, hops)
	}
	rep := checkSound(t, bt)
	live := 0
	for r := range head {
		live += int(tail[r] - head[r])
	}
	// Full leaves but one at each end of every range, and the inner nodes.
	if limit := live/14 + 2*ranges + rep.inner; rep.leaves > limit {
		t.Fatalf("%d leaves for %d live keys in %d ranges, want at most %d", rep.leaves, live, ranges, limit)
	}
	t.Logf("%d live keys in %d leaves and %d inner nodes; %d nodes ever allocated, %d on the free list; %d hops, none onto an empty leaf",
		live, rep.leaves, rep.inner, maxNodes, rep.free, hops)
}
