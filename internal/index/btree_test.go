package index

import (
	"math/rand"
	"slices"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestBTreeLineBudget pins what an operation on a tree of known shape
// touches: the cache-line accesses the memory system counted (hits + misses,
// loads and stores alike), the reads the tree issued, the offset and length
// of every store, and the flush trains. A walk reads a node's header line
// (kind, count, entries 0-2), then the line of each entry its binary search
// probes (entries 3-6, 7-10 and 11-14 are lines 1, 2 and 3), then, for a
// change that moves entries or a scan, the occupied lines it still lacks in
// one read per run. The stores are the ones the tree made when every walk
// read whole nodes. A split at a run's insertion point also flushes the node
// the run leaves: one fence, one train of its four lines, and the node
// reaches the media as one full block write. A leaf insert that continues no
// run writes back what it stored, as one train and with no fence: the node
// from its header to its last entry, and a split's new sibling whole. An
// operation through a finger on a key within its leaf's bounds reads the
// leaf alone, until a split anywhere in the tree sends it from the root again.
func TestBTreeLineBudget(t *testing.T) {
	sys := newSys()
	log := &spaceLog{Space: sys.Space}
	bt, err := NewBTree(log, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	// Keys 10, 20, ..., 400 in ascending order fill leaf 0 with 10-150 and
	// split it at the end twice: leaf 1 holds 160-300, leaf 3 holds 310-400,
	// and root 2 holds the separators 0, 160 and 310.
	for k := uint64(10); k <= 400; k += 10 {
		if err := bt.Insert(clk, k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	type span = [2]uint64
	cost := func(name string, wantLines uint64, wantReads int, wantStores []span, wantTrains [][]span, wantFences int, op func()) {
		t.Helper()
		lines := log.measure(t, sys, name, op)
		if len(log.reads) != wantReads || !slices.Equal(log.writes, wantStores) {
			t.Fatalf("%s: reads %v and stores %v, want %d reads and stores %v", name, log.reads, log.writes, wantReads, wantStores)
		}
		if lines != wantLines {
			t.Fatalf("%s touched %d lines, want %d", name, lines, wantLines)
		}
		if log.fences != wantFences || !slices.EqualFunc(log.trains, wantTrains, slices.Equal) || log.clwbs != nil {
			t.Fatalf("%s: %d fences, trains %v and CLWBs %v, want %d, %v and none", name, log.fences, log.trains, log.clwbs, wantFences, wantTrains)
		}
	}
	get := func(k uint64, want bool) func() {
		return func() {
			if v, ok := bt.Get(clk, k); ok != want || (ok && v != k+1) {
				t.Fatalf("get(%d) = %d,%v", k, v, ok)
			}
		}
	}
	insert := func(bt *BTreeIndex, k uint64) func() {
		return func() {
			if err := bt.Insert(clk, k, k+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	node, hdr := bt.NodeAddr, bt.base

	// The root's three separators share its header line. Leaf 1's search for
	// its first key probes entries 7, 3, 1 and 0: lines 2, 1 and 0.
	cost("get hit", 4, 4, nil, nil, 0, get(160, true))
	// 305 sorts after leaf 1's last key: entries 7, 11, 13 and 14.
	cost("get miss", 4, 4, nil, nil, 0, get(305, false))
	// 410 goes after leaf 3's ten keys (probes 5, 8, 9: lines 0-2). An append
	// stores the entry, then the header. It continues the run that filled the
	// leaf, so it writes nothing back.
	cost("append insert", 6, 4, []span{{node(3) + 176, 16}, {node(3), 16}}, nil, 0, insert(bt, 410))
	// 315 goes to position 1 of leaf 3 (probes 5, 2, 1, 0: lines 0 and 1). The
	// entries after it move, so line 2 comes in, and the node is stored up to
	// its new last entry, in line 3. It starts no run: the store is written
	// back.
	cost("middle insert", 8, 4, []span{{node(3), 208}}, [][]span{{{node(3), 208}}}, 0, insert(bt, 315))
	// 235 lands at position 8 of full leaf 1 (probes 7, 11, 9, 8: lines 0, 2,
	// 3), which the run that filled it left behind: it splits in the middle.
	// Line 1 comes in; node 4 is taken from nextFree and stored whole with
	// the key and entries 8-14; leaf 1 keeps 8 entries, a header store; the
	// root takes separator 235 at position 2. The leaf level's two stores are
	// written back in one train; the root's and the tree header's are not.
	cost("middle split", 13, 5, []span{{hdr + hdrNextFree, 8}, {node(4), 256}, {node(1), 16}, {node(2), 80}},
		[][]span{{{node(1), 16}, {node(4), 256}}}, 0, insert(bt, 235))
	// The root now holds 0, 160, 235, 310: 310 is entry 3, in its line 1.
	// Leaf 3's search for its first key reads lines 0 and 1; the eleven
	// entries that move down bring lines 2 and 3 in one read.
	cost("delete", 9, 5, []span{{node(3), 192}}, nil, 0, func() {
		if !bt.Delete(clk, 310) {
			t.Fatal("delete(310) found nothing")
		}
	})
	// From 200: leaf 1 (160-230) is searched (probes 4, 2, 3: lines 0 and 1)
	// and its keys from position 4 on are in lines 1 and 2, one read for the
	// second. Four keys in, the chain leads to node 4, whose header line and
	// its eight entries' lines 1-2 (one read) are read before the scan stops
	// at its first key.
	var got []uint64
	cost("scan stopping early", 7, 6, nil, nil, 0, func() {
		if err := bt.Scan(clk, 200, func(k, _ uint64) bool {
			got = append(got, k)
			return len(got) < 5
		}); err != nil {
			t.Fatal(err)
		}
	})
	if want := []uint64{200, 210, 220, 230, 235}; !slices.Equal(got, want) {
		t.Fatalf("scan from 200 gave %v, want %v", got, want)
	}

	// A finger's first get walks as a bare one does (the root's probes 2 and
	// 1 in line 0; leaf 1's probes 4, 2, 1 and 0 in lines 1 and 0) and keeps
	// leaf 1 with the bounds the root's separators 160 and 235 give it.
	var mine, other Finger
	fget := func(f *Finger, k uint64) func() {
		return func() {
			if v, ok := f.On(bt).Get(clk, k); !ok || v != k+1 {
				t.Fatalf("finger get(%d) = %d,%v", k, v, ok)
			}
		}
	}
	cost("finger's first get", 3, 3, nil, nil, 0, fget(&mine, 170))
	// The next get in [160, 234] reads leaf 1 alone: its header line and
	// probes 4, 6 and 5 in line 1. The check of the finger is one cached
	// line of virtual time, not a line of the tree (TestFingerCheckCost).
	cost("get on the finger's leaf", 2, 2, nil, nil, 0, fget(&mine, 210))
	if mine.Hits != 1 || mine.Misses != 1 {
		t.Fatalf("finger hits %d, misses %d; want 1 and 1", mine.Hits, mine.Misses)
	}
	// Another owner fills leaf 3 and splits it at the end of its run. The
	// split changes the tree's shape, so the first finger walks in full
	// again (the root's probes 2 and 1, still in line 0) and records leaf 1
	// anew, and the get after it reads the leaf alone.
	for _, k := range []uint64{415, 420, 425, 430, 435} {
		if err := other.On(bt).Insert(clk, k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	cost("finger left behind by a split", 3, 3, nil, nil, 0, fget(&mine, 200))
	cost("finger recorded again", 2, 2, nil, nil, 0, fget(&mine, 210))
	if mine.Hits != 2 || mine.Misses != 2 {
		t.Fatalf("finger hits %d, misses %d; want 2 and 2", mine.Hits, mine.Misses)
	}
	// An insert on the finger's leaf, which has room, and a delete that
	// leaves it keys read the leaf alone and store what a walk's would. 215
	// goes to position 6 (probes 4, 6, 5: lines 0 and 1), line 2 comes in for
	// the entries that move, and the leaf is stored up to its ninth entry and
	// written back, as the insert continues no run. The delete probes the
	// same lines, and the move brings line 2 in again.
	cost("insert on the finger's leaf", 6, 3, []span{{node(1), 160}}, [][]span{{{node(1), 160}}}, 0, func() {
		if err := mine.On(bt).Insert(clk, 215, 216); err != nil {
			t.Fatal(err)
		}
	})
	cost("delete on the finger's leaf", 6, 3, []span{{node(1), 144}}, nil, 0, func() {
		if !mine.On(bt).Delete(clk, 215) {
			t.Fatal("delete(215) found nothing")
		}
	})

	// A second tree, one leaf: the next range's head, 1000-6000, then a run
	// from 100 ahead of it. The run's tenth key, 109, finds the leaf full
	// after a run of nine at positions 0-8.
	run, err := NewBTree(log, bt.Bytes(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1000, 2000, 3000, 4000, 5000, 6000, 100, 101, 102, 103, 104, 105, 106, 107, 108} {
		insert(run, k)()
	}
	node, hdr = run.NodeAddr, run.base
	sys.XPB.Drain(clk)
	before := sys.Dev.Stats().Snapshot()
	// 109 goes to position 9 (probes 7, 11, 9, 8: lines 0, 2, 3; line 1
	// comes in for the split). The leaf splits there: node 1 is stored whole
	// with 1000-6000, leaf 0 keeps 100-109 up to its new last entry, and node
	// 1, which the run has left, is fenced and flushed as one train. Then
	// the root split: nextFree, the new root whole, the root word.
	cost("insertion-point split", 18, 4,
		[]span{{hdr + hdrNextFree, 8}, {node(1), 256}, {node(0), 176}, {hdr + hdrNextFree, 8}, {node(2), 256}, {hdr + hdrRoot, 8}},
		[][]span{{{node(1), 256}}}, 1, insert(run, 109))
	sys.XPB.Drain(clk)
	d := sys.Dev.Stats().Snapshot().Sub(before)
	if d.MediaWrites != 1 || d.FullBlockWrites != 1 || d.PartialBlockWrites != 0 {
		t.Fatalf("the finished node reached the media in %d writes, %d of them full and %d partial; want one full block write", d.MediaWrites, d.FullBlockWrites, d.PartialBlockWrites)
	}
	if got := scanKeys(t, run, 0, func(k uint64) uint64 { return k + 1 }); len(got) != 16 || got[9] != 109 || got[10] != 1000 {
		t.Fatalf("after the split the tree scans %v", got)
	}
}

// TestFingerCheckCost pins what looking at a finger costs: one cached line of
// virtual time. On a tree whose root is its only leaf a walk and the finger
// read the same lines, so a get through the finger takes that much longer
// than a bare one, and a finger saves time only where it skips inner nodes.
func TestFingerCheckCost(t *testing.T) {
	bt, err := NewBTree(newSys().Space, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10; k++ {
		if err := bt.Insert(nil, k, k); err != nil {
			t.Fatal(err)
		}
	}
	var f Finger
	took := func(idx Index) uint64 {
		clk := sim.NewClock()
		if v, ok := idx.Get(clk, 7); !ok || v != 7 {
			t.Fatalf("get(7) = %d,%v", v, ok)
		}
		return clk.Nanos()
	}
	took(bt)
	took(f.On(bt)) // records the finger; every line is cached from here on
	bare, fingered := took(bt), took(f.On(bt))
	if fingered != bare+sim.CacheHitLine || f.Hits != 1 || f.Misses != 1 {
		t.Fatalf("get through the finger took %d ns (hits %d, misses %d), a bare get %d ns; want %d more and one hit",
			fingered, f.Hits, f.Misses, bare, sim.CacheHitLine)
	}
}

// TestBTreeLast: Last returns the largest key as the model has it through
// inserts and deletes down to an empty tree, and after a crash cuts the
// split of the right edge it also finds the key in the new leaf that only
// the chain reaches.
func TestBTreeLast(t *testing.T) {
	bt, err := NewBTree(newSys().Space, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	check := func() {
		t.Helper()
		want, any := uint64(0), false
		for k := range ref {
			want, any = max(want, k), true
		}
		if got, ok, err := bt.Last(clk); err != nil || ok != any || got != want {
			t.Fatalf("Last() = %d,%v,%v; model %d,%v", got, ok, err, want, any)
		}
	}
	check()
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(2000))
		if i < 1500 || rng.Intn(3) == 0 {
			applyOp(t, bt, clk, ref, treeOp{key: k})
		} else {
			applyOp(t, bt, clk, ref, treeOp{key: k, del: true})
		}
		check()
	}
	for k := range ref {
		applyOp(t, bt, clk, ref, treeOp{key: k, del: true})
		check()
	}

	// Keys 1-15 fill the root leaf; 16 splits it at the end of the run, and
	// the crash comes after the leaf's store, before the new root's.
	var ops []treeOp
	for k := uint64(1); k <= 16; k++ {
		ops = append(ops, treeOp{key: k})
	}
	sys, _, at := runUntilCrash(t, pmem.EADR, 0, ops, &pmem.FaultPlan{Event: pmem.FaultStore, N: 34})
	if at != 15 {
		t.Fatalf("store 34 falls in op %d, want the insert of 16", at)
	}
	bt, err = OpenBTree(sys.Crash().Space, sim.NewClock(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := checkInvariants(t, bt); rep.offTree != 1 {
		t.Fatalf("%+v, want the split's right half off the tree", rep)
	}
	if got, ok, err := bt.Last(nil); err != nil || !ok || got != 16 {
		t.Fatalf("after the crash Last() = %d,%v,%v, want 16", got, ok, err)
	}
}
