package index

import "falcon/internal/sim"

// Finger is one owner's memory of the B+-tree leaf its last descent reached:
// the leaf, the keys [lo, hi] the separators on the way send there, and the
// tree's structure version (BTreeIndex.shape) then. While the version is
// unchanged no separator has moved and no leaf has left the tree, so an
// operation on a key within the bounds starts at the leaf and skips the
// inner nodes above it. A finger is recorded only from a walk whose read
// validated, and it belongs to one owner: the engine keeps one per worker
// and index, since two goroutines updating one finger would race.
//
// The zero Finger holds nothing; On binds it to a tree.
type Finger struct {
	t      *BTreeIndex
	leaf   uint64
	lo, hi uint64
	shape  uint64 // the tree's shape when recorded, plus one; 0: nothing recorded
	// Hits and Misses count the operations that started at the finger's
	// leaf and those that walked from the root, for the owner to read.
	Hits, Misses uint64
}

// On returns idx as f's owner reaches it: a B+-tree whose operations start
// at f's leaf while it is valid, or idx itself for an index of another kind.
// A finger follows one tree at a time; binding it to another forgets its
// leaf and keeps its counts.
func (f *Finger) On(idx Index) Index {
	t, ok := idx.(*BTreeIndex)
	if !ok {
		return idx
	}
	if f.t != t {
		*f = Finger{t: t, Hits: f.Hits, Misses: f.Misses}
	}
	return f
}

// covers reports whether f's leaf is the one for key at the given shape. A
// look at a finger is charged as one cached line.
func (f *Finger) covers(clk *sim.Clock, shape, key uint64) bool {
	if f == nil {
		return false
	}
	clk.Advance(sim.CacheHitLine)
	return f.shape == shape+1 && f.lo <= key && key <= f.hi
}

// keep counts an operation that hit or missed, and after a miss records the
// leaf w reached at the given shape, if w reached one of the tree's leaves.
func (f *Finger) keep(hit bool, shape uint64, w *treeWalk) {
	switch {
	case f == nil:
	case hit:
		f.Hits++
	default:
		f.Misses++
		if f.shape = 0; w.sound {
			f.leaf, f.lo, f.hi, f.shape = w.leaf, w.lo, w.hi, shape+1
		}
	}
}

// Get is BTreeIndex.Get from f's leaf.
func (f *Finger) Get(clk *sim.Clock, key uint64) (uint64, bool) { return f.t.get(clk, f, key) }

// Insert is BTreeIndex.Insert from f's leaf while it has room.
func (f *Finger) Insert(clk *sim.Clock, key, val uint64) error { return f.t.insert(clk, f, key, val) }

// Update is BTreeIndex.Update from f's leaf.
func (f *Finger) Update(clk *sim.Clock, key, val uint64) bool { return f.t.update(clk, f, key, val) }

// Delete is BTreeIndex.Delete from f's leaf while the delete cannot empty it.
func (f *Finger) Delete(clk *sim.Clock, key uint64) bool { return f.t.delete(clk, f, key) }

// Scan is BTreeIndex.Scan, positioned from f's leaf.
func (f *Finger) Scan(clk *sim.Clock, from uint64, fn func(key, val uint64) bool) error {
	return f.t.scan(clk, f, from, fn)
}

// Kind returns BTree.
func (f *Finger) Kind() Kind { return BTree }

// Bytes returns the tree's persistent footprint.
func (f *Finger) Bytes() uint64 { return f.t.Bytes() }
