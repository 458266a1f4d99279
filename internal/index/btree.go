package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

const (
	btreeMagic = 0xFA1C0B7E_00000002 // 2: a one-block header

	nodeBytes   = pmem.BlockSize // one NVM media block per node
	nodeEntries = 15             // 16 B header + 15 × 16 B entries
	maxDepth    = 24
	readTries   = 8 // optimistic tries of a read before it takes the writers' mutex

	// Byte offsets in the tree header, after the magic word.
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
// deterministic group mode, which runs one worker at a time and never between
// a reader's loads) there is none.
//
// Every change to a node is one store, and multi-node changes are ordered so
// that a crash between two stores leaves a tree that answers correctly, with
// one exception: a split's right half is reachable by scans only until its
// separator lands in the parent (DESIGN.md §3).
//
// An owner that holds a Finger (Finger.On) starts its operations at the leaf
// its last descent reached while the tree's shape is the one it saw then.
type BTreeIndex struct {
	space pmem.Space
	base  uint64
	cap   uint64 // node capacity

	mu       sync.Mutex    // writers, and a reader out of tries
	seq      atomic.Uint64 // DRAM only; odd while a writer is storing
	restarts atomic.Uint64 // reads thrown away because seq moved under them
	// shape is the structure version: every split and every leaf unlink (and
	// so every root change) bumps it, while seq is odd. A finger recorded at
	// one shape names the right leaf for its keys until the next.
	shape atomic.Uint64
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
	return structHdrBytes + btreeNodes(capacity)*nodeBytes
}

// btreeNodes is the most nodes capacity inserts can need in any order, so a
// table's heap fills before its tree does. Every split (runHint.split) leaves
// at least 8 entries in one node: a middle split 8 and 8, a split at the end
// of a run 15 and 1, a split at a run's insertion point i+1 and 15-i, i >= 7.
// A potential over a leaf's count and hint (TestSplitRuleKeysPerLeaf) shows
// that no insert order leaves fewer than 4.5 keys per leaf, which the stream
// that alternates end and middle splits reaches (fill a half to 15, split it
// at the end, split the full node in the middle: 9 keys, 2 leaves); inner
// nodes split the same way: capacity·2/9 leaves, and 2/7 as many inner nodes
// above them. Runs shorter than minRun would break it: a position-only run
// lets two inserts at a time split a full node 14 and 2, leaving 2 keys per
// leaf. (Leaves are never merged: deletes that thin leaves out without
// emptying them are outside this bound.)
func btreeNodes(capacity uint64) uint64 {
	return capacity*2/7 + 64
}

// nodeLines is the cache lines of a node. Line 0 holds the header (kind,
// count, the run hint, a leaf's link) and entries 0-2; entries 3-14 fill
// lines 1-3, four to a line.
const nodeLines = nodeBytes / pmem.LineSize

// minRun is the length an ascending run needs before a full node splits at
// its insertion point rather than in the middle: with shorter runs an
// adversary can leave fewer than 4.5 keys per leaf (see btreeNodes).
const minRun = 9

// runHint is a node's header byte 2: the low nibble is the position of the
// node's last insert plus one (0: none, the node has been left behind), the
// high nibble the length of the run that insert ended, the inserts in a row,
// it included, each at the position after the one before (saturating at 15).
type runHint byte

// continues reports whether an insert at position i continues the run.
func (h runHint) continues(i int) bool { return h&15 != 0 && int(h&15) == i }

// after returns the hint of a node whose last insert, at position pos, was
// an insert at position i into a node with hint h (pos differs from i when a
// split moved the key to another node).
func (h runHint) after(i, pos int) runHint {
	l := runHint(1)
	if h.continues(i) {
		l = min(h>>4+1, 15)
	}
	return l<<4 | runHint(pos+1)
}

// split says where a full node with hint h splits for an insert at position
// i: it keeps [0, mid), the key goes to it if toLeft and to the new sibling
// otherwise, and run reports a split at the run's insertion point, which
// leaves the node the key does not go to finished. An ascending run (TPC-C's
// per-district order ids) continued at the end keeps the full node and opens
// the sibling with the key alone; continued inside the node by a run of
// minRun, it keeps [0, i) and the key, and the entries after the key, which
// belong to the next range, go to the sibling. Any other insert splits in the
// middle, 8 and 8 entries.
func (h runHint) split(i int) (mid int, toLeft, run bool) {
	switch {
	case h.continues(i) && i == nodeEntries:
		return nodeEntries, false, true
	case h.continues(i) && i >= nodeEntries/2 && h>>4 >= minRun:
		return i, true, true
	case i <= nodeEntries/2:
		return nodeEntries / 2, true, false
	default:
		return nodeEntries/2 + 1, false, false
	}
}

// node is a walk's image of one node: the lines the walk read, bit l of lines
// for bytes [64l, 64l+64). The other lines of buf still hold whatever node
// the buffer held before.
type node struct {
	id    uint64
	lines uint8
	buf   [nodeBytes]byte
}

func (n *node) leaf() bool { return n.buf[0] == 0 }
func (n *node) setKind(inner bool) {
	if inner {
		n.buf[0] = 1
	} else {
		n.buf[0] = 0
	}
}
func (n *node) count() int        { return int(n.buf[1]) }
func (n *node) hint() runHint     { return runHint(n.buf[2]) }
func (n *node) setHint(h runHint) { n.buf[2] = byte(h) }
func (n *node) setCount(c int)    { n.buf[1] = byte(c) }
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
func (t *BTreeIndex) Bytes() uint64 { return structHdrBytes + t.cap*nodeBytes }

func (t *BTreeIndex) nodeOff(id uint64) uint64 { return t.base + structHdrBytes + id*nodeBytes }

// NodeAddr returns the space offset of node id (diagnostics and tests).
func (t *BTreeIndex) NodeAddr(id uint64) uint64 { return t.nodeOff(id) }

// loadHead starts a walk's image of node id in n with its header line. The
// other lines come in as a search probes them (keyAt) or a change needs them
// (fill).
func (t *BTreeIndex) loadHead(clk *sim.Clock, id uint64, n *node) *node {
	n.id, n.lines = id, 1
	t.space.Read(clk, t.nodeOff(id), n.buf[:pmem.LineSize])
	return n
}

// fill reads the lines of n covering bytes [lo, hi) that the walk does not
// hold yet, one Space.Read per contiguous run of them.
func (t *BTreeIndex) fill(clk *sim.Clock, n *node, lo, hi int) {
	for l := lo / pmem.LineSize; l < nodeLines && l*pmem.LineSize < hi; {
		if n.lines&(1<<l) != 0 {
			l++
			continue
		}
		e := l + 1
		for e < nodeLines && e*pmem.LineSize < hi && n.lines&(1<<e) == 0 {
			e++
		}
		t.space.Read(clk, t.nodeOff(n.id)+uint64(l*pmem.LineSize), n.buf[l*pmem.LineSize:e*pmem.LineSize])
		n.lines |= 1<<e - 1<<l
		l = e
	}
}

// fillEntry makes n hold entry i.
func (t *BTreeIndex) fillEntry(clk *sim.Clock, n *node, i int) {
	t.fill(clk, n, entryOff(i), entryOff(i+1))
}

// keyAt returns key i of n, reading its line first if the walk does not hold it.
func (t *BTreeIndex) keyAt(clk *sim.Clock, n *node, i int) uint64 {
	t.fillEntry(clk, n, i)
	return n.key(i)
}

// searchLeaf returns the position of key in leaf n, or (insert position,
// false). It reads the lines of the entries its binary search probes and no
// others; the position it returns, if below the count, is one of them.
func (t *BTreeIndex) searchLeaf(clk *sim.Clock, n *node, key uint64) (int, bool) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keyAt(clk, n, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n.count() && n.key(lo) == key
}

// upper returns the position of the first separator of inner node n above
// key; the entry to descend is the one before it, or entry 0. Like searchLeaf
// it reads only the lines its probes land in. The separators that bound the
// entry descended, key(i) for i > 0 and key(i+1), are among the probes (a
// search that ends at position 0 or 1 has probed position 1). Entry 0's key
// bounds nothing: keys below it go to entry 0 too, and once an unlink has
// handed the node its left neighbour's keys it may lie above later separators.
func (t *BTreeIndex) upper(clk *sim.Clock, n *node, key uint64) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keyAt(clk, n, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// storeHead persists n's header and, when entries from position lo on moved,
// everything up to its last entry, in one store: a crash sees the node either
// before the change or after it. It returns the length of the store.
func (t *BTreeIndex) storeHead(clk *sim.Clock, n *node, lo int) int {
	end := 16
	if lo < n.count() {
		end = 16 + 16*n.count()
	}
	t.space.Write(clk, t.nodeOff(n.id), n.buf[:end])
	return end
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
	train [2]pmem.Span // a leaf level's write-back, kept here so it does not escape
	// The leaf a descent reached and the keys [lo, hi] the separators on its
	// way send there; sound is false for a walk that ended on no leaf of the
	// tree (see descend). A finger is made of them.
	leaf   uint64
	lo, hi uint64
	sound  bool
}

var walkPool = sync.Pool{New: func() any { return new(treeWalk) }}

// descend walks from the root to the leaf for key using w's node buffers,
// recording the path of (node, childEntry) when record is true. npath is the
// leaf's depth; w.path[:npath] is valid when recorded. The leaf's key bounds
// come from the separators around each level's position, which its binary
// search has read already.
func (t *BTreeIndex) descend(clk *sim.Clock, key uint64, w *treeWalk, record bool) (n *node, npath int) {
	n = &w.nodes[0]
	w.lo, w.hi, w.sound = 0, math.MaxUint64, false
	for id := t.root.Load(); id < t.cap; npath++ {
		n = t.loadHead(clk, id, &w.nodes[npath])
		if n.leaf() {
			w.leaf, w.sound = id, true
			return n, npath
		}
		if npath >= maxDepth {
			break
		}
		i := max(t.upper(clk, n, key)-1, 0)
		if i > 0 {
			w.lo = max(w.lo, n.key(i))
		}
		if i+1 < n.count() {
			w.hi = min(w.hi, n.key(i+1)-1)
		}
		if record {
			w.path[npath] = pathEntry{n: n, idx: i}
		}
		id = n.val(i)
	}
	// A reader's view that will not validate, or the torn image of an ADR
	// crash, can hold a cycle of inner nodes or an id past the last node: the
	// walk ends on an empty leaf and finds nothing.
	n.buf, n.lines = [nodeBytes]byte{}, 1<<nodeLines-1
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
func (t *BTreeIndex) Get(clk *sim.Clock, key uint64) (uint64, bool) { return t.get(clk, nil, key) }

func (t *BTreeIndex) get(clk *sim.Clock, f *Finger, key uint64) (v uint64, ok bool) {
	w := walkPool.Get().(*treeWalk)
	var hit bool
	var shape uint64
	t.read(func(uint64) {
		shape = t.shape.Load()
		var n *node
		n, hit = t.locate(clk, f, shape, key, w)
		var i int
		if i, ok = t.searchLeaf(clk, n, key); ok {
			v = n.val(i)
		}
	})
	f.keep(hit, shape, w)
	walkPool.Put(w)
	return v, ok
}

// locate finds the leaf for key in a reader's view at the given shape: f's
// leaf when f covers key at that shape, a walk from the root otherwise. It
// reports whether the finger served. Looking at f is charged as one cached
// line; a nil f is no finger and costs nothing.
func (t *BTreeIndex) locate(clk *sim.Clock, f *Finger, shape, key uint64, w *treeWalk) (*node, bool) {
	if f.covers(clk, shape, key) {
		return t.loadHead(clk, f.leaf, &w.nodes[0]), true
	}
	n, _ := t.descend(clk, key, w, false)
	return n, false
}

// start finds the leaf for key for a writer, which holds mu: f's leaf when f
// covers key and fits accepts the leaf's entry count, and otherwise a walk
// from the root that records the path (a split or an unlink needs it). A leaf
// fits refused has had its header line read for nothing.
func (t *BTreeIndex) start(clk *sim.Clock, f *Finger, key uint64, w *treeWalk, fits func(count int) bool) (n *node, npath int, hit bool) {
	if f.covers(clk, t.shape.Load(), key) {
		if n = t.loadHead(clk, f.leaf, &w.nodes[0]); fits(n.count()) {
			return n, 0, true
		}
	}
	n, npath = t.descend(clk, key, w, true)
	return n, npath, false
}

// Insert adds key→val, splitting nodes as needed.
func (t *BTreeIndex) Insert(clk *sim.Clock, key, val uint64) error {
	return t.insert(clk, nil, key, val)
}

func (t *BTreeIndex) insert(clk *sim.Clock, f *Finger, key, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	n, npath, hit := t.start(clk, f, key, w, func(c int) bool { return c < nodeEntries })
	i, exists := t.searchLeaf(clk, n, key)
	if exists {
		f.keep(hit, t.shape.Load(), w)
		return ErrDuplicate
	}
	t.seq.Add(1)
	defer t.seq.Add(1)
	if err := t.insertEntry(clk, w, npath, n, i, key, val); err != nil {
		return err // a finger recorded before a split is stale by its shape
	}
	f.keep(hit, t.shape.Load(), w)
	return nil
}

// insertEntry places (k, v) at position i of n, the node w.path[:npath]
// leads to. A full node splits first (runHint.split) and hands the separator
// of its new right sibling to the level above. Only an append, or a split at
// the end of a run, leaves n's entries where they are and stores none of
// them: any other insert reads the occupied lines the search did not.
//
// A leaf insert that continues no run (the hint it leaves has run length 1)
// then writes back the leaf stores it made, as one train and with no fence:
// no run will store into the node next, and a walk that missed the node's
// lines has just brought its block into the XPBuffer, where they merge
// (DESIGN.md §3, "What an index store writes back"). A bulk load (a nil clock) writes
// nothing back.
func (t *BTreeIndex) insertEntry(clk *sim.Clock, w *treeWalk, npath int, n *node, i int, k, v uint64) error {
	h := n.hint()
	if c := n.count(); i < c || (c == nodeEntries && !h.continues(i)) {
		t.fill(clk, n, 0, entryOff(c))
	}
	lone := clk != nil && n.leaf() && !h.continues(i)
	if n.count() < nodeEntries {
		n.insertAt(i, k, v)
		n.setHint(h.after(i, i))
		if i == n.count()-1 {
			// An entry past the count is invisible: appending stores the
			// entry and then the header, not the whole node.
			t.space.Write(clk, t.nodeOff(n.id)+uint64(16+16*i), n.entry(i))
			i = n.count()
		}
		t.storeHead(clk, n, i)
		if lone {
			// The two stores of an append lie within what an insert in the
			// middle stores: the header up to the last entry.
			w.train[0] = pmem.Span{Off: t.nodeOff(n.id), N: 16 + 16*n.count()}
			t.space.CLWBTrain(clk, w.train[:1])
		}
		return nil
	}
	rightID, err := t.allocNode(clk)
	if err != nil {
		return err
	}
	t.shape.Add(1)
	// Left keeps [0,mid), right gets [mid,count), and the key goes to one of
	// them, which carries the run on; the other is left with no hint.
	mid, toLeft, run := h.split(i)
	right := &w.spare
	right.id, right.buf = rightID, [nodeBytes]byte{}
	copy(right.buf[:16], n.buf[:16]) // kind, and a leaf's next
	copy(right.buf[16:], n.buf[16+16*mid:])
	right.setCount(nodeEntries - mid)
	n.setCount(mid)
	if n.leaf() {
		n.setNext(rightID)
	}
	// moved is the first entry of n that changed: none, unless the key went
	// there; finished is the node the key did not go to.
	moved, finished := mid, n.id
	if toLeft {
		n.insertAt(i, k, v)
		n.setHint(h.after(i, i))
		right.setHint(0)
		moved, finished = i, rightID
	} else {
		right.insertAt(i-mid, k, v)
		right.setHint(h.after(i, i-mid))
		n.setHint(0)
	}
	// The sibling first: nothing reaches it until the left node's link does.
	// A new node is stored whole: whole-line stores need no fill from the
	// media, and they leave the node cached for the descents that follow.
	sep := right.key(0)
	if n.leaf() {
		// The walk's bounds now belong to the half that holds the key.
		if toLeft {
			w.hi = sep - 1
		} else {
			w.leaf, w.lo = rightID, sep
		}
	}
	t.space.Write(clk, t.nodeOff(rightID), right.buf[:])
	stored := t.storeHead(clk, n, moved)
	switch {
	case run:
		// The run will not come back to the node it left: its four lines go
		// down together, one full-block media write, instead of one by one
		// as the cache evicts them.
		w.train[0] = pmem.Span{Off: t.nodeOff(finished), N: nodeBytes}
		t.space.SFence(clk)
		t.space.CLWBTrain(clk, w.train[:1])
	case lone:
		w.train[0] = pmem.Span{Off: t.nodeOff(n.id), N: stored}
		w.train[1] = pmem.Span{Off: t.nodeOff(rightID), N: nodeBytes}
		t.space.CLWBTrain(clk, w.train[:])
	}
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
	return t.update(clk, nil, key, val)
}

func (t *BTreeIndex) update(clk *sim.Clock, f *Finger, key, val uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	n, _, hit := t.start(clk, f, key, w, func(int) bool { return true })
	f.keep(hit, t.shape.Load(), w)
	i, ok := t.searchLeaf(clk, n, key)
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
func (t *BTreeIndex) Delete(clk *sim.Clock, key uint64) bool { return t.delete(clk, nil, key) }

func (t *BTreeIndex) delete(clk *sim.Clock, f *Finger, key uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	n, npath, hit := t.start(clk, f, key, w, func(c int) bool { return c > 1 })
	i, ok := t.searchLeaf(clk, n, key)
	if ok {
		t.seq.Add(1)
		t.removeEntry(clk, n, i)
		if n.count() == 0 {
			t.unlinkLeaf(clk, w, npath, n)
		}
		t.seq.Add(1)
	}
	f.keep(hit, t.shape.Load(), w)
	return ok
}

// removeEntry takes entry i out of n and stores the change. Unless i is the
// last entry, the entries after it move down and the store covers them all,
// so the occupied lines the walk did not read come in first.
func (t *BTreeIndex) removeEntry(clk *sim.Clock, n *node, i int) {
	if c := n.count(); i < c-1 {
		t.fill(clk, n, 0, entryOff(c))
	}
	n.removeAt(i)
	t.storeHead(clk, n, i)
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
	t.shape.Add(1)
	w.sound = false // the walk's leaf is leaving the tree
	prev, hasPrev := t.prevLeaf(clk, w, npath)
	p := w.path[a]
	t.removeEntry(clk, p.n, p.idx)
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
		r = t.loadHead(clk, child, r)
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
	p := w.path[l]
	t.fillEntry(clk, p.n, p.idx-1)
	n := t.loadHead(clk, p.n.val(p.idx-1), &w.spare)
	for !n.leaf() {
		last := n.count() - 1
		t.fillEntry(clk, n, last)
		n = t.loadHead(clk, n.val(last), n)
	}
	return n.id, true
}

// Last returns the largest key in the tree, or false for an empty tree. It
// walks the right edge to the last leaf and scans on from that leaf's first
// key, so the chain also shows it a leaf that a crash left past the edge,
// off the tree (see Scan). The error is Scan's.
func (t *BTreeIndex) Last(clk *sim.Clock) (key uint64, ok bool, err error) {
	w := walkPool.Get().(*treeWalk)
	var from uint64
	t.read(func(uint64) {
		n, _ := t.descend(clk, math.MaxUint64, w, false)
		if from = 0; n.count() > 0 {
			from = t.keyAt(clk, n, 0)
		}
	})
	walkPool.Put(w)
	err = t.Scan(clk, from, func(k, _ uint64) bool {
		key, ok = k, true
		return true
	})
	return key, ok, err
}

// Scan iterates keys >= from in ascending order until fn returns false. It
// reads one leaf at a time into its own buffer and calls fn with nothing held:
// fn may wait for a writer that is itself waiting to store into this tree.
// What it delivers of a leaf, the occupied lines from its start position on,
// is read inside the validated read, so no stale or torn byte reaches fn.
func (t *BTreeIndex) Scan(clk *sim.Clock, from uint64, fn func(key, val uint64) bool) error {
	return t.scan(clk, nil, from, fn)
}

func (t *BTreeIndex) scan(clk *sim.Clock, f *Finger, from uint64, fn func(key, val uint64) bool) error {
	w := walkPool.Get().(*treeWalk)
	defer walkPool.Put(w)
	var (
		n         *node
		i         int
		nxt, at   uint64 // the leaf after n, as of sequence at
		chained   bool
		delivered bool
		placed    bool // the last read found n by key, not by the chain
		hit       bool
		shape     uint64
	)
	// The chain of a sound tree ascends and is shorter than nextFree; the
	// torn image of an ADR crash may do neither.
	for hops, least := uint64(0), from; hops < t.nextFree.Load(); hops++ {
		at = t.read(func(s uint64) {
			if placed = !chained || s != at; !placed {
				n, i = t.loadHead(clk, nxt, &w.nodes[0]), 0
			} else {
				// The tree changed since nxt was read, and its node may be
				// another leaf's by now: go by the smallest key not yet
				// delivered.
				shape = t.shape.Load()
				n, hit = t.locate(clk, f, shape, least, w)
				i, _ = t.searchLeaf(clk, n, least)
				hops = 0
			}
			t.fill(clk, n, entryOff(i), entryOff(n.count()))
		})
		if placed {
			f.keep(hit, shape, w)
		}
		for ; i < n.count(); i++ {
			k := n.key(i)
			if k < least {
				// Until a key is delivered, keys below from are skipped: the
				// leaf the chain leads to may be the right half of a split a
				// crash cut, which descents do not reach and whose keys start
				// below from. After one, a key that does not ascend is a chain
				// that runs backwards.
				if !delivered {
					continue
				}
				return ErrCorrupt
			}
			if !fn(k, n.val(i)) {
				return nil
			}
			least, delivered = k+1, true
		}
		if nxt, chained = n.next(); !chained {
			return nil
		}
	}
	return ErrCorrupt
}
