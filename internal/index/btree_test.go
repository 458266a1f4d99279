package index

import (
	"slices"
	"testing"

	"falcon/internal/sim"
)

// TestBTreeLineBudget pins what an operation on a tree of known shape
// touches: the cache-line accesses the memory system counted (hits + misses,
// loads and stores alike), the reads the tree issued, and the offset and
// length of every store. A walk reads a node's header line (kind, count,
// entries 0-2), then the line of each entry its binary search probes (entries
// 3-6, 7-10 and 11-14 are lines 1, 2 and 3), then, for a change that moves
// entries or a scan, the occupied lines it still lacks in one read per run.
// The stores are the ones the tree made when every walk read whole nodes.
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
	node, hdr := bt.NodeAddr, bt.base
	type span = [2]uint64
	cost := func(name string, wantLines uint64, wantReads int, wantStores []span, op func()) {
		t.Helper()
		lines := log.measure(t, sys, name, op)
		if len(log.reads) != wantReads || !slices.Equal(log.writes, wantStores) {
			t.Fatalf("%s: reads %v and stores %v, want %d reads and stores %v", name, log.reads, log.writes, wantReads, wantStores)
		}
		if lines != wantLines {
			t.Fatalf("%s touched %d lines, want %d", name, lines, wantLines)
		}
	}
	get := func(k uint64, want bool) func() {
		return func() {
			if v, ok := bt.Get(clk, k); ok != want || (ok && v != k+1) {
				t.Fatalf("get(%d) = %d,%v", k, v, ok)
			}
		}
	}
	insert := func(k uint64) func() {
		return func() {
			if err := bt.Insert(clk, k, k+1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The root's three separators share its header line. Leaf 1's search for
	// its first key probes entries 7, 3, 1 and 0: lines 2, 1 and 0.
	cost("get hit", 4, 4, nil, get(160, true))
	// 305 sorts after leaf 1's last key: entries 7, 11, 13 and 14.
	cost("get miss", 4, 4, nil, get(305, false))
	// 410 goes after leaf 3's ten keys (probes 5, 8, 9: lines 0-2). An append
	// stores the entry, then the header.
	cost("append insert", 6, 4, []span{{node(3) + 176, 16}, {node(3), 16}}, insert(410))
	// 315 goes to position 1 of leaf 3 (probes 5, 2, 1, 0: lines 0 and 1). The
	// entries after it move, so line 2 comes in, and the node is stored up to
	// its new last entry, in line 3.
	cost("middle insert", 8, 4, []span{{node(3), 208}}, insert(315))
	// 235 lands at position 8 of full leaf 1 (probes 7, 11, 9, 8: lines 0, 2,
	// 3), which splits in the middle: line 1 comes in; node 4 is taken from
	// nextFree and stored whole with entries 7-14 and the key; leaf 1 keeps 7
	// entries, a header store; the root takes separator 230 at position 2.
	cost("split", 13, 5, []span{{hdr + hdrNextFree, 8}, {node(4), 256}, {node(1), 16}, {node(2), 80}}, insert(235))
	// The root now holds 0, 160, 230, 310: 310 is entry 3, in its line 1.
	// Leaf 3's search for its first key reads lines 0 and 1; the eleven
	// entries that move down bring lines 2 and 3 in one read.
	cost("delete", 9, 5, []span{{node(3), 192}}, func() {
		if !bt.Delete(clk, 310) {
			t.Fatal("delete(310) found nothing")
		}
	})
	// From 200: leaf 1 (160-220) is searched (probes 3, 5, 4: lines 0 and 1)
	// and its keys from position 4 on are in line 1 already. Three keys in,
	// the chain leads to node 4, whose header line and its nine entries' lines
	// 1-2 (one read) are read before the scan stops at its first key.
	var got []uint64
	cost("scan stopping early", 6, 5, nil, func() {
		if err := bt.Scan(clk, 200, func(k, _ uint64) bool {
			got = append(got, k)
			return len(got) < 4
		}); err != nil {
			t.Fatal(err)
		}
	})
	if want := []uint64{200, 210, 220, 230}; !slices.Equal(got, want) {
		t.Fatalf("scan from 200 gave %v, want %v", got, want)
	}
}
