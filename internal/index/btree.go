package index

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

const (
	btreeMagic = 0xFA1C0B7E_00000001

	nodeBytes   = pmem.BlockSize // one NVM media block per node
	nodeEntries = 15             // 16 B header + 15 × 16 B entries
	maxDepth    = 24
	readTries   = 8 // optimistic tries of a read before it takes the writers' mutex

	// Byte offsets in the 64 B tree header, after the magic word.
	hdrRoot     = 8
	hdrNextFree = 16
	hdrCap      = 24
	hdrFreeHead = 32
)

// BTreeIndex is a B+-tree with 256 B nodes and leaf sibling links. Nodes are
// never rebalanced, but a leaf that Delete empties leaves the tree (see
// unlinkLeaf) and its node is reused, so scans and space follow the live
// keys.
//
// Writers exclude one another with mu and make seq odd around their stores.
// Readers take no lock (see read): they wait for an even seq, read, and keep
// what they read only if seq is still the same, so a reader never parks behind
// a writer and Scan holds nothing while its callback runs. Until it is
// validated a view may mix two versions of a node (each 64 B line is
// consistent, the node need not be), or show a node that was freed and reused
// since: ids are range-checked before they are followed and walks are bounded,
// so such a view costs another try, never a panic. A retry reads the nodes
// again and pays their virtual time as a real optimistic reader pays real
// time; when no writer runs beside the readers (one worker, or the
// deterministic group mode, whose barrier applies writes alone) there is none.
//
// Every change to a node is one store, and multi-node changes are ordered so
// that a crash between two stores leaves a tree that answers correctly, with
// one exception: a split's right half is reachable by scans only until its
// separator lands in the parent (DESIGN.md §3).
type BTreeIndex struct {
	space pmem.Space
	base  uint64
	cap   uint64 // node capacity

	mu       sync.Mutex    // writers, and a reader out of tries
	seq      atomic.Uint64 // DRAM only; odd while a writer is storing
	restarts atomic.Uint64 // reads thrown away because seq moved under them
	// root, nextFree and freeHead mirror the persistent header (written under
	// mu, rebuilt from the header on Open; readers load the first two).
	// freeHead is the first node of the free list plus one, 0 for an empty
	// list; a free node keeps the rest of the list in its sibling word.
	root     atomic.Uint64
	nextFree atomic.Uint64
	freeHead uint64
}

// BTreeBytes returns the persistent footprint for a capacity-key tree.
func BTreeBytes(capacity uint64) uint64 {
	return 64 + btreeNodes(capacity)*nodeBytes
}

// btreeNodes is the most nodes capacity inserts can need in any order, so a
// table's heap fills before its tree does. A middle split leaves 8 and 8
// entries, a split at the end 15 and 1; alternating them (fill a half to 15,
// split it at the end, split the full node in the middle) spends 9 keys on 2
// leaves, and inner nodes split the same way: capacity·2/9 leaves, and 2/7
// as many inner nodes above them. (Leaves are never merged: deletes that
// thin leaves out without emptying them are outside this bound.)
func btreeNodes(capacity uint64) uint64 {
	return capacity*2/7 + 64
}

type node struct {
	id  uint64
	buf [nodeBytes]byte
}

func (n *node) leaf() bool { return n.buf[0] == 0 }
func (n *node) setKind(inner bool) {
	if inner {
		n.buf[0] = 1
	} else {
		n.buf[0] = 0
	}
}
func (n *node) count() int { return int(n.buf[1]) }

// appended is a hint in the header: the last insert into the node went after
// all its entries. Two such inserts in a row are taken for an ascending run.
func (n *node) appended() bool { return n.buf[2] != 0 }
func (n *node) setAppended(a bool) {
	n.buf[2] = 0
	if a {
		n.buf[2] = 1
	}
}
func (n *node) setCount(c int) { n.buf[1] = byte(c) }
func (n *node) next() (uint64, bool) {
	v := binary.LittleEndian.Uint64(n.buf[8:16])
	return v - 1, v != 0
}
func (n *node) setNext(id uint64)  { binary.LittleEndian.PutUint64(n.buf[8:16], id+1) }
func (n *node) entry(i int) []byte { return n.buf[16+16*i : 32+16*i] }
func (n *node) key(i int) uint64   { return binary.LittleEndian.Uint64(n.buf[16+16*i:]) }
func (n *node) val(i int) uint64   { return binary.LittleEndian.Uint64(n.buf[24+16*i:]) }
func (n *node) set(i int, k, v uint64) {
	binary.LittleEndian.PutUint64(n.buf[16+16*i:], k)
	binary.LittleEndian.PutUint64(n.buf[24+16*i:], v)
}

// insertAt shifts entries right and places (k,v) at position i.
func (n *node) insertAt(i int, k, v uint64) {
	c := n.count()
	copy(n.buf[16+16*(i+1):16+16*(c+1)], n.buf[16+16*i:16+16*c])
	n.set(i, k, v)
	n.setCount(c + 1)
}

// removeAt shifts entries left over position i.
func (n *node) removeAt(i int) {
	c := n.count()
	copy(n.buf[16+16*i:16+16*(c-1)], n.buf[16+16*(i+1):16+16*c])
	n.setCount(c - 1)
}

// searchLeaf returns the position of key, or (insert position, false).
func (n *node) searchLeaf(key uint64) (int, bool) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.key(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n.count() && n.key(lo) == key
}

// childFor returns the entry index to descend for key: the last separator
// <= key, defaulting to 0.
func (n *node) childFor(key uint64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.key(mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// NewBTree formats a tree at base sized for capacity keys.
func NewBTree(space pmem.Space, base uint64, capacity uint64) (*BTreeIndex, error) {
	t := &BTreeIndex{space: space, base: base, cap: btreeNodes(capacity)}
	if base+t.Bytes() > space.Size() {
		return nil, fmt.Errorf("index: btree at %d (%d nodes) overflows space", base, t.cap)
	}
	var hdr [64]byte
	binary.LittleEndian.PutUint64(hdr[0:], btreeMagic)
	binary.LittleEndian.PutUint64(hdr[hdrRoot:], 0) // root = node 0
	binary.LittleEndian.PutUint64(hdr[hdrNextFree:], 1)
	binary.LittleEndian.PutUint64(hdr[hdrCap:], t.cap)
	space.BulkWrite(base, hdr[:])
	// Node 0: empty leaf.
	zero := make([]byte, nodeBytes)
	space.BulkWrite(t.nodeOff(0), zero)
	t.nextFree.Store(1)
	return t, nil
}

// OpenBTree reattaches to a tree at base (instant recovery).
func OpenBTree(space pmem.Space, clk *sim.Clock, base uint64) (*BTreeIndex, error) {
	var hdr [64]byte
	space.Read(clk, base, hdr[:])
	if binary.LittleEndian.Uint64(hdr[0:]) != btreeMagic {
		return nil, fmt.Errorf("index: no btree at %d", base)
	}
	t := &BTreeIndex{
		space:    space,
		base:     base,
		cap:      binary.LittleEndian.Uint64(hdr[hdrCap:]),
		freeHead: binary.LittleEndian.Uint64(hdr[hdrFreeHead:]),
	}
	t.root.Store(binary.LittleEndian.Uint64(hdr[hdrRoot:]))
	t.nextFree.Store(binary.LittleEndian.Uint64(hdr[hdrNextFree:]))
	return t, nil
}

// Kind returns BTree.
func (t *BTreeIndex) Kind() Kind { return BTree }

// Bytes returns the persistent footprint.
func (t *BTreeIndex) Bytes() uint64 { return 64 + t.cap*nodeBytes }

func (t *BTreeIndex) nodeOff(id uint64) uint64 { return t.base + 64 + id*nodeBytes }

func (t *BTreeIndex) loadInto(clk *sim.Clock, id uint64, n *node) *node {
	n.id = id
	t.space.Read(clk, t.nodeOff(id), n.buf[:])
	return n
}

// storeHead persists n's header and, when entries from position lo on moved,
// everything up to its last entry, in one store: a crash sees the node either
// before the change or after it.
func (t *BTreeIndex) storeHead(clk *sim.Clock, n *node, lo int) {
	end := 16
	if lo < n.count() {
		end = 16 + 16*n.count()
	}
	t.space.Write(clk, t.nodeOff(n.id), n.buf[:end])
}

// allocNode takes a node off the free list, or the next one never used. A
// crash before the caller links the node into the tree leaks it.
func (t *BTreeIndex) allocNode(clk *sim.Clock) (uint64, error) {
	if t.freeHead != 0 {
		id := t.freeHead - 1
		t.freeHead = t.space.ReadU64(clk, t.nodeOff(id)+8)
		t.space.WriteU64(clk, t.base+hdrFreeHead, t.freeHead)
		return id, nil
	}
	id := t.nextFree.Load()
	if id >= t.cap {
		return 0, ErrFull
	}
	t.nextFree.Store(id + 1)
	t.space.WriteU64(clk, t.base+hdrNextFree, id+1)
	return id, nil
}

// freeNode pushes a node nothing points at any more on the free list: first
// the link in the node, then the head, so a crash between the two leaks the
// node and keeps the list whole.
func (t *BTreeIndex) freeNode(clk *sim.Clock, id uint64) {
	t.space.WriteU64(clk, t.nodeOff(id)+8, t.freeHead)
	t.freeHead = id + 1
	t.space.WriteU64(clk, t.base+hdrFreeHead, t.freeHead)
}

func (t *BTreeIndex) setRoot(clk *sim.Clock, id uint64) {
	t.root.Store(id)
	t.space.WriteU64(clk, t.base+hdrRoot, id)
}

// treeWalk holds the reusable per-operation state of a root-to-leaf walk:
// one node buffer per level plus the recorded path, and a spare buffer for
// the one node an operation touches off that path (a split's new sibling, an
// unlink's previous leaf). Every tree operation descends, and allocating
// (and zeroing) a fresh 256 B node per level was a measurable slice of sweep
// host time, so walks come from a pool.
type treeWalk struct {
	nodes [maxDepth + 1]node
	path  [maxDepth]pathEntry
	spare node
}

var walkPool = sync.Pool{New: func() any { return new(treeWalk) }}

// descend walks from the root to the leaf for key using w's node buffers,
// recording the path of (node, childEntry) when record is true. npath is the
// leaf's depth; w.path[:npath] is valid when recorded.
func (t *BTreeIndex) descend(clk *sim.Clock, key uint64, w *treeWalk, record bool) (n *node, npath int) {
	n = &w.nodes[0]
	for id := t.root.Load(); id < t.cap; npath++ {
		n = t.loadInto(clk, id, &w.nodes[npath])
		if n.leaf() {
			return n, npath
		}
		if npath >= maxDepth {
			break
		}
		i := n.childFor(key)
		if record {
			w.path[npath] = pathEntry{n: n, idx: i}
		}
		id = n.val(i)
	}
	// A reader's view that will not validate, or the torn image of an ADR
	// crash, can hold a cycle of inner nodes or an id past the last node: the
	// walk ends on an empty leaf and finds nothing.
	n.buf = [nodeBytes]byte{}
	return n, npath
}

type pathEntry struct {
	n   *node
	idx int
}

// read runs fn, which reads the tree at sequence s into variables of its own,
// until a run ends with seq unchanged, and returns that s. fn must tolerate
// any view (see BTreeIndex). A run that readTries tries could not fit between
// two writers is made under the writers' mutex, so every read finishes.
func (t *BTreeIndex) read(fn func(s uint64)) uint64 {
	for try := 0; try < readTries; try++ {
		s := t.seq.Load()
		// A writer's stores take a microsecond or two; one that is still at
		// it after the spin has lost its processor.
		for spin := 0; s&1 != 0 && spin < 256; spin++ {
			s = t.seq.Load()
		}
		if s&1 != 0 {
			runtime.Gosched()
			continue
		}
		if fn(s); t.seq.Load() == s {
			return s
		}
		t.restarts.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.seq.Load()
	fn(s)
	return s
}

// Restarts returns how many reads (a Get, or one leaf of a Scan) were thrown
// away and made again because a writer stored under them.
func (t *BTreeIndex) Restarts() uint64 { return t.restarts.Load() }

// Get returns the value for key.
func (t *BTreeIndex) Get(clk *sim.Clock, key uint64) (v uint64, ok bool) {
	w := walkPool.Get().(*treeWalk)
	t.read(func(uint64) {
		n, _ := t.descend(clk, key, w, false)
		var i int
		if i, ok = n.searchLeaf(key); ok {
			v = n.val(i)
		}
	})
	walkPool.Put(w)
	return v, ok
}

// Insert adds key→val, splitting nodes as needed.
func (t *BTreeIndex) Insert(clk *sim.Clock, key, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	n, npath := t.descend(clk, key, w, true)
	i, exists := n.searchLeaf(key)
	if exists {
		return ErrDuplicate
	}
	t.seq.Add(1)
	defer t.seq.Add(1)
	return t.insertEntry(clk, w, npath, n, i, key, val)
}

// insertEntry places (k, v) at position i of n, the node w.path[:npath]
// leads to. A full node splits first and hands the separator of its new
// right sibling to the level above.
func (t *BTreeIndex) insertEntry(clk *sim.Clock, w *treeWalk, npath int, n *node, i int, k, v uint64) error {
	if n.count() < nodeEntries {
		n.insertAt(i, k, v)
		n.setAppended(i == n.count()-1)
		if n.appended() {
			// An entry past the count is invisible: appending stores the
			// entry and then the header, not the whole node.
			t.space.Write(clk, t.nodeOff(n.id)+uint64(16+16*i), n.entry(i))
			i = n.count()
		}
		t.storeHead(clk, n, i)
		return nil
	}
	rightID, err := t.allocNode(clk)
	if err != nil {
		return err
	}
	// Left keeps [0,mid), right gets [mid,count). In an ascending run (TPC-C's
	// per-district order ids) the key opens the right sibling alone, which
	// leaves full nodes behind, not half-full ones; a key that merely happens
	// to sort after a full node splits it in the middle like any other.
	mid, toLeft := nodeEntries/2, i <= nodeEntries/2
	if i == nodeEntries && n.appended() {
		mid = nodeEntries
	}
	right := &w.spare
	right.id, right.buf = rightID, [nodeBytes]byte{}
	copy(right.buf[:16], n.buf[:16]) // kind, and a leaf's next
	copy(right.buf[16:], n.buf[16+16*mid:])
	right.setCount(nodeEntries - mid)
	right.setAppended(i == nodeEntries)
	n.setCount(mid)
	if n.leaf() {
		n.setNext(rightID)
	}
	moved := mid // first entry of n that changed: none, unless the key went there
	if toLeft {
		n.insertAt(i, k, v)
		moved = i
	} else {
		right.insertAt(i-mid, k, v)
	}
	// The sibling first: nothing reaches it until the left node's link does.
	// A new node is stored whole: whole-line stores need no fill from the
	// media, and they leave the node cached for the descents that follow.
	sep := right.key(0)
	t.space.Write(clk, t.nodeOff(rightID), right.buf[:])
	t.storeHead(clk, n, moved)
	if npath > 0 {
		p := w.path[npath-1]
		return t.insertEntry(clk, w, npath-1, p.n, p.idx+1, sep, rightID)
	}
	// Root split: new root with two children.
	rootID, err := t.allocNode(clk)
	if err != nil {
		return err
	}
	r := &w.spare
	r.id, r.buf = rootID, [nodeBytes]byte{}
	r.setKind(true)
	r.set(0, 0, n.id)
	r.set(1, sep, rightID)
	r.setCount(2)
	t.space.Write(clk, t.nodeOff(rootID), r.buf[:])
	t.setRoot(clk, rootID)
	return nil
}

// Update repoints an existing key.
func (t *BTreeIndex) Update(clk *sim.Clock, key, val uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	n, _ := t.descend(clk, key, w, false)
	i, ok := n.searchLeaf(key)
	if !ok {
		return false
	}
	n.set(i, key, val)
	t.seq.Add(1)
	t.space.Write(clk, t.nodeOff(n.id)+uint64(16+16*i), n.entry(i))
	t.seq.Add(1)
	return true
}

// Delete removes key; a leaf it empties leaves the tree.
func (t *BTreeIndex) Delete(clk *sim.Clock, key uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	n, npath := t.descend(clk, key, w, true)
	i, ok := n.searchLeaf(key)
	if !ok {
		return false
	}
	t.seq.Add(1)
	defer t.seq.Add(1)
	n.removeAt(i)
	t.storeHead(clk, n, i)
	if n.count() == 0 {
		t.unlinkLeaf(clk, w, npath, n)
	}
	return true
}

// unlinkLeaf takes the empty leaf that w.path[:npath] leads to out of the
// tree, with every inner node it was the only leaf under, and frees them. The
// stores are ordered so that a crash after any of them leaves a valid tree:
// the leaf is already stored empty; dropping its entry above means no descent
// reaches it, so no key can land in it while scans still pass through;
// relinking the leaf before it takes it out of the scans' way; only then do
// the nodes go on the free list, where an insert may reuse them. A crash on
// the way leaks the nodes not yet freed, and before the relink leaves the
// empty leaf chained for good.
func (t *BTreeIndex) unlinkLeaf(clk *sim.Clock, w *treeWalk, npath int, leaf *node) {
	// a is the deepest level that keeps another child.
	a := npath - 1
	for a >= 0 && w.path[a].n.count() == 1 {
		a--
	}
	if a < 0 {
		return // the tree's only leaf stays, empty, as a root leaf does
	}
	prev, hasPrev := t.prevLeaf(clk, w, npath)
	p := w.path[a]
	p.n.removeAt(p.idx)
	t.storeHead(clk, p.n, p.idx)
	if hasPrev {
		t.space.Write(clk, t.nodeOff(prev)+8, leaf.buf[8:16])
	}
	t.freeNode(clk, leaf.id)
	for l := a + 1; l < npath; l++ {
		t.freeNode(clk, w.path[l].n.id)
	}
	// A root left with one child hands the root to it.
	for r := w.path[0].n; !r.leaf() && r.count() == 1; {
		child := r.val(0)
		t.setRoot(clk, child)
		t.freeNode(clk, r.id)
		r = t.loadInto(clk, child, r)
	}
}

// prevLeaf finds the leaf chained before the one w.path[:npath] leads to:
// the last leaf under the nearest left sibling along the path.
func (t *BTreeIndex) prevLeaf(clk *sim.Clock, w *treeWalk, npath int) (uint64, bool) {
	l := npath - 1
	for l >= 0 && w.path[l].idx == 0 {
		l--
	}
	if l < 0 {
		return 0, false
	}
	n := t.loadInto(clk, w.path[l].n.val(w.path[l].idx-1), &w.spare)
	for !n.leaf() {
		n = t.loadInto(clk, n.val(n.count()-1), n)
	}
	return n.id, true
}

// Scan iterates keys >= from in ascending order until fn returns false. It
// reads one leaf at a time into its own buffer and calls fn with nothing held:
// fn may wait for a writer that is itself waiting to store into this tree.
func (t *BTreeIndex) Scan(clk *sim.Clock, from uint64, fn func(key, val uint64) bool) error {
	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	var (
		n       *node
		i       int
		nxt, at uint64 // the leaf after n, as of sequence at
		chained bool
	)
	// The chain of a sound tree ascends and is shorter than nextFree; the
	// torn image of an ADR crash may do neither.
	for hops, least := uint64(0), from; hops < t.nextFree.Load(); hops++ {
		at = t.read(func(s uint64) {
			if chained && s == at {
				n, i = t.loadInto(clk, nxt, &w.nodes[0]), 0
				return
			}
			// The tree changed since nxt was read, and its node may be another
			// leaf's by now: go by the smallest key not yet delivered.
			n, _ = t.descend(clk, least, w, false)
			i, _ = n.searchLeaf(least)
			hops = 0
		})
		for ; i < n.count(); i++ {
			k := n.key(i)
			if k < least {
				return ErrCorrupt
			}
			if !fn(k, n.val(i)) {
				return nil
			}
			least = k + 1
		}
		if nxt, chained = n.next(); !chained {
			return nil
		}
	}
	return ErrCorrupt
}
