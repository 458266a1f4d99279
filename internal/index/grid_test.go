package index

import (
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestArraysOnTheMediaGrid: on a block-aligned base, the header is one media
// block, so every bucket and node is a block of its own, and the region ends
// on a block.
func TestArraysOnTheMediaGrid(t *testing.T) {
	sys := newSys()
	const base = 3 * pmem.BlockSize
	h, err := NewHash(sys.Space, base, 1000)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBTree(sys.Space, base+h.Bytes(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what       string
		first, end uint64
	}{
		{"hash bucket 0", h.BucketAddr(0), base + h.Bytes()},
		{"btree node 0", bt.NodeAddr(0), base + h.Bytes() + bt.Bytes()},
	} {
		if c.first%pmem.BlockSize != 0 || c.end%pmem.BlockSize != 0 {
			t.Errorf("%s at %d, region end %d: want both on a %d B block", c.what, c.first, c.end, pmem.BlockSize)
		}
	}
}

// TestOpenRefusesOldLayout: an index formatted when its header was one 64 B
// line carries the previous magic word, and its buckets or nodes sit where
// this layout does not look for them, so opening it fails.
func TestOpenRefusesOldLayout(t *testing.T) {
	sys := newSys()
	if _, err := NewHash(sys.Space, 0, 1000); err != nil {
		t.Fatal(err)
	}
	const treeBase = 1 << 20
	if _, err := NewBTree(sys.Space, treeBase, 1000); err != nil {
		t.Fatal(err)
	}
	sys.Space.BulkWriteU64(0, 0xFA1C0DA5_00000002)
	sys.Space.BulkWriteU64(treeBase, 0xFA1C0B7E_00000001)
	if _, err := OpenHash(sys.Space, sim.NewClock(), 0); err == nil {
		t.Error("OpenHash accepted a hash image of the 64 B-header layout")
	}
	if _, err := OpenBTree(sys.Space, sim.NewClock(), treeBase); err == nil {
		t.Error("OpenBTree accepted a B-tree image of the 64 B-header layout")
	}
}
