package index

import (
	"sort"
	"testing"

	"falcon/internal/sim"
)

// treeReport is what checkInvariants counted. The last five fields are zero
// in a tree no crash interrupted.
type treeReport struct {
	leaves, inner, free, depth int

	emptyLeaves int // empty leaves descents reach, in a tree with other leaves
	deadHops    int // empty leaves the chain passes that no descent reaches
	offTree     int // chained leaves with keys that no descent reaches
	leaked      int // nodes below nextFree that nothing holds
	loneChild   int // 1 if the root is an inner node with one child
}

func (r treeReport) sound() bool {
	return r.emptyLeaves == 0 && r.deadHops == 0 && r.offTree == 0 && r.leaked == 0 && r.loneChild == 0
}

// loadNode reads all of node id, which no walk of the tree does.
func loadNode(t *BTreeIndex, clk *sim.Clock, id uint64) *node {
	n := t.loadHead(clk, id, new(node))
	t.fill(clk, n, 0, nodeBytes)
	return n
}

// checkInvariants walks the whole tree, the leaf chain and the free list and
// fails the test on anything no crash point of Insert or Delete can produce:
// leaves at different depths, an inner node without children, a key outside
// the range its separators promise, keys or leaves out of order, a leaf that
// descents reach and the chain skips, a free list that loops or shares a node
// with the tree. What a crash may leave behind is counted in the report.
func checkInvariants(tb testing.TB, t *BTreeIndex) treeReport {
	tb.Helper()
	clk := sim.NewClock()
	var rep treeReport
	inTree := map[uint64]bool{}
	var treeLeaves []uint64
	rep.depth = -1
	var walk func(id uint64, depth int, lo, hi uint64, bounded bool)
	walk = func(id uint64, depth int, lo, hi uint64, bounded bool) {
		if id >= t.nextFree.Load() {
			tb.Fatalf("node %d at or above nextFree %d", id, t.nextFree.Load())
		}
		if inTree[id] {
			tb.Fatalf("node %d reached twice", id)
		}
		inTree[id] = true
		n := loadNode(t, clk, id)
		if n.leaf() {
			if rep.depth < 0 {
				rep.depth = depth
			} else if rep.depth != depth {
				tb.Fatalf("leaf %d at depth %d, others at %d", id, depth, rep.depth)
			}
			rep.leaves++
			treeLeaves = append(treeLeaves, id)
			for i := 0; i < n.count(); i++ {
				k := n.key(i)
				if k < lo || (bounded && k >= hi) || (i > 0 && k <= n.key(i-1)) {
					tb.Fatalf("leaf %d: key %d at %d breaks order or range [%d,%d)", id, k, i, lo, hi)
				}
			}
			return
		}
		rep.inner++
		if n.count() == 0 {
			tb.Fatalf("inner node %d has no children", id)
		}
		if depth == 0 && n.count() == 1 {
			rep.loneChild = 1
		}
		for i := 0; i < n.count(); i++ {
			clo, chi, cb := lo, hi, bounded
			if i > 0 {
				clo = n.key(i)
				if clo < lo || (i > 1 && clo <= n.key(i-1)) {
					tb.Fatalf("inner %d: separator %d at %d out of order", id, clo, i)
				}
			}
			if i+1 < n.count() {
				chi, cb = n.key(i+1), true
			}
			walk(n.val(i), depth+1, clo, chi, cb)
		}
	}
	walk(t.root.Load(), 0, 0, 0, false)

	// The chain from the first leaf must pass every tree leaf, in order.
	next := 0
	seen := map[uint64]bool{}
	var last uint64
	started := false
	for id, ok := treeLeaves[0], true; ok; {
		if seen[id] {
			tb.Fatalf("leaf chain loops at node %d", id)
		}
		seen[id] = true
		n := loadNode(t, clk, id)
		if !n.leaf() {
			tb.Fatalf("leaf chain reaches inner node %d", id)
		}
		switch {
		case next < len(treeLeaves) && treeLeaves[next] == id:
			next++
			if n.count() == 0 && len(treeLeaves) > 1 {
				rep.emptyLeaves++
			}
		case inTree[id]:
			tb.Fatalf("leaf chain reaches leaf %d out of tree order", id)
		case n.count() == 0:
			rep.deadHops++
		default:
			rep.offTree++
		}
		for i := 0; i < n.count(); i++ {
			if k := n.key(i); started && k <= last {
				tb.Fatalf("leaf chain: key %d in node %d after %d", k, id, last)
			} else {
				last, started = k, true
			}
		}
		id, ok = n.next()
	}
	if next != len(treeLeaves) {
		tb.Fatalf("leaf chain ends after %d of %d tree leaves", next, len(treeLeaves))
	}

	for head := t.freeHead; head != 0; {
		id := head - 1
		if id >= t.nextFree.Load() || inTree[id] || seen[id] {
			tb.Fatalf("free list holds node %d (nextFree %d, in tree %v, chained %v)", id, t.nextFree.Load(), inTree[id], seen[id])
		}
		seen[id] = true // also catches a loop
		rep.free++
		head = t.space.ReadU64(clk, t.nodeOff(id)+8)
	}
	if hdr := t.space.ReadU64(clk, t.base+hdrFreeHead); hdr != t.freeHead {
		tb.Fatalf("free head %d in memory, %d in the header", t.freeHead, hdr)
	}
	rep.leaked = int(t.nextFree.Load()) - rep.free - rep.leaves - rep.inner - rep.deadHops - rep.offTree
	if rep.leaked < 0 {
		tb.Fatalf("more nodes in use than allocated: %+v, nextFree %d", rep, t.nextFree.Load())
	}
	return rep
}

// checkSound is checkInvariants for a tree no crash interrupted: nothing
// leaked, no empty leaf but a lone one, every chained leaf reachable.
func checkSound(tb testing.TB, t *BTreeIndex) treeReport {
	tb.Helper()
	rep := checkInvariants(tb, t)
	if !rep.sound() {
		tb.Fatalf("tree not sound: %+v (nextFree %d)", rep, t.nextFree.Load())
	}
	return rep
}

// scanKeys returns the keys Scan visits from from on, checking each value
// with val.
func scanKeys(tb testing.TB, idx Index, from uint64, val func(k uint64) uint64) []uint64 {
	tb.Helper()
	var got []uint64
	if err := idx.Scan(sim.NewClock(), from, func(k, v uint64) bool {
		if want := val(k); v != want {
			tb.Fatalf("scan: key %d has value %d, want %d", k, v, want)
		}
		got = append(got, k)
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	return got
}

// sortedFrom returns the model's keys >= from in order.
func sortedFrom(ref map[uint64]uint64, from uint64) []uint64 {
	var keys []uint64
	for k := range ref {
		if k >= from {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// checkAgainstModel demands that a scan from from returns exactly the model.
func checkAgainstModel(tb testing.TB, idx Index, ref map[uint64]uint64, from uint64) {
	tb.Helper()
	want := sortedFrom(ref, from)
	got := scanKeys(tb, idx, from, func(k uint64) uint64 { return ref[k] })
	if len(got) != len(want) {
		tb.Fatalf("scan from %d: %d keys, model has %d", from, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("scan from %d: key %d is %d, model has %d", from, i, got[i], want[i])
		}
	}
}
