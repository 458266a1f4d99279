package index

import (
	"slices"
	"sync"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// btreeOpsAgainstModel reads ops as (opcode, operand) byte pairs and applies
// them to a tree and a reference map. Single-key ops address keys 0..255 of
// the 4096-key space; run ops insert or delete the 16 keys of one of its 256
// blocks in order, so a short input fills and drains whole leaves and reaches
// three levels. A scan stops after 1 to 24 keys, as the opcode says, often
// inside a leaf; a drain scans for the block's oldest key after each delete,
// as TPC-C's Delivery does, so walks pass through buffers that last held a
// leaf the drain emptied and the tree freed, in the lines they do not read.
// Every result is compared on the spot; at the end the tree must be sound and
// scan the model. Until the first delete the tree must use no more nodes than
// btreeNodes allows for the keys inserted so far, so the fuzzer also hunts
// for insert orders that fill a tree before its sizing says it can be.
//
// The opcode also names the owner an op runs as: one of three fingers
// (Finger.On) or none. The owners interleave, so each one's finger is often
// left behind by another's split or unlink. A twin tree on a system of its own
// runs every op with no finger, and each op must give the twin's result and
// make the twin's stores and write-backs, byte range for byte range: a finger
// saves reads and changes nothing else.
//
// The tree runs on a recording space, which checks what each change writes
// back: every leaf line an insert that continues no run stores, and nothing
// for a delete. On the NoFlush view (noFlush) no line may reach the media
// through a write-back at all.
func btreeOpsAgainstModel(t *testing.T, ops []byte, noFlush bool) {
	newTree := func() (*pmem.System, *spaceLog, *BTreeIndex) {
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 4 << 20, CacheBytes: 64 << 10, XPBufferBytes: 16 << 10})
		log := &spaceLog{Space: sys.Space}
		if noFlush {
			log.Space = sys.Space.NoFlush()
		}
		bt, err := NewBTree(log, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return sys, log, bt
	}
	sys, log, bt := newTree()
	twinSys, twinLog, twin := newTree()
	var fingers [3]Finger
	owners := []Index{fingers[0].On(bt), fingers[1].On(bt), fingers[2].On(bt), bt}
	var idx Index // the owner of the op in progress
	clk := sim.NewClock()
	w := new(treeWalk)
	isLeaf := func(line uint64) bool {
		id := (line - bt.nodeOff(0)) / nodeBytes
		return line >= bt.nodeOff(0) && id < bt.cap && log.Space.ReadU64(nil, bt.nodeOff(id))&0xff == 0
	}
	reset := func() { log.reset(); twinLog.reset() }
	// sameChanges demands the twin's stores, trains and fences of the op
	// since reset.
	sameChanges := func(op string, k uint64) {
		if !slices.Equal(log.writes, twinLog.writes) || !slices.EqualFunc(log.trains, twinLog.trains, slices.Equal) ||
			!slices.Equal(log.clwbs, twinLog.clwbs) || log.fences != twinLog.fences {
			t.Fatalf("%s(%d) stored %v, trained %v, fenced %d; the twin without fingers %v, %v, %d",
				op, k, log.writes, log.trains, log.fences, twinLog.writes, twinLog.trains, twinLog.fences)
		}
	}
	ref := map[uint64]uint64{}
	var keys []uint64 // ref's keys in order: what a scan must return is a slice of them
	insertOnly := true
	insert := func(k uint64) {
		reset()
		err := idx.Insert(clk, k, k^0x55)
		_, dup := ref[k]
		if dup != (err == ErrDuplicate) || (!dup && err != nil) {
			t.Fatalf("insert(%d): %v, in the model %v", k, err, dup)
		}
		if twinErr := twin.Insert(clk, k, k^0x55); twinErr != err {
			t.Fatalf("insert(%d): %v, the twin %v", k, err, twinErr)
		}
		sameChanges("insert", k)
		// The key's leaf carries a run of length 1 exactly when the insert
		// continued none.
		if missed := log.notWrittenBack(isLeaf); len(missed) > 0 {
			if leaf, _ := bt.descend(nil, k, w, false); leaf.hint()>>4 == 1 {
				t.Fatalf("insert(%d) continued no run and did not write back the leaf lines %v it stored", k, missed)
			}
		}
		if !dup {
			i, _ := slices.BinarySearch(keys, k)
			keys = slices.Insert(keys, i, k)
		}
		ref[k] = k ^ 0x55
		if used, bound := bt.nextFree.Load(), btreeNodes(uint64(len(ref))); insertOnly && used > bound {
			t.Fatalf("%d keys inserted take %d nodes, btreeNodes allows %d", len(ref), used, bound)
		}
	}
	remove := func(k uint64) {
		insertOnly = false
		_, want := ref[k]
		reset()
		if got := idx.Delete(clk, k); got != want {
			t.Fatalf("delete(%d) = %v, in the model %v", k, got, want)
		}
		if got := twin.Delete(clk, k); got != want {
			t.Fatalf("delete(%d) = %v on the twin, in the model %v", k, got, want)
		}
		sameChanges("delete", k)
		if log.clwbs != nil || log.trains != nil {
			t.Fatalf("delete(%d) wrote back %v and trains %v, want nothing", k, log.clwbs, log.trains)
		}
		if want {
			i, _ := slices.BinarySearch(keys, k)
			keys = slices.Delete(keys, i, i+1)
		}
		delete(ref, k)
	}
	scan := func(from uint64, stop int) {
		i, _ := slices.BinarySearch(keys, from)
		want := keys[i:]
		for _, x := range []Index{idx, twin} {
			n := 0
			if err := x.Scan(clk, from, func(key, val uint64) bool {
				if n >= len(want) || key != want[n] || val != ref[key] {
					t.Fatalf("scan from %d: key %d at %d, model %v", from, key, n, want[:min(n+1, len(want))])
				}
				n++
				return n < stop
			}); err != nil {
				t.Fatal(err)
			}
			if n < min(stop, len(want)) {
				t.Fatalf("scan from %d stopped after %d of %d keys", from, n, len(want))
			}
		}
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		k := uint64(ops[1])
		idx = owners[int(ops[0]/6)%len(owners)]
		switch ops[0] % 6 {
		case 0:
			insert(k * 16)
		case 1:
			remove(k * 16)
		case 2:
			for i := uint64(0); i < 16; i++ {
				insert(k*16 + i)
			}
		case 3:
			for i := uint64(0); i < 16; i++ {
				remove(k*16 + i)
				scan(k*16, 1)
			}
		case 4:
			scan(k*16, 24-int(ops[0]/6)%24)
		default:
			want, exists := ref[k*16]
			for _, x := range []Index{idx, twin} {
				if got, ok := x.Get(clk, k*16); ok != exists || got != want {
					t.Fatalf("get(%d) = %d,%v, model %d,%v", k*16, got, ok, want, exists)
				}
			}
			// The update leaves the value as it was, so the model holds.
			reset()
			for _, x := range []Index{idx, twin} {
				if x.Update(clk, k*16, want) != exists {
					t.Fatalf("update(%d) disagrees with the model's %v", k*16, exists)
				}
			}
			sameChanges("update", k*16)
		}
	}
	checkSound(t, bt)
	checkAgainstModel(t, bt, ref, 0)
	checkAgainstModel(t, twin, ref, 0)
	if noFlush {
		noWriteBacks(t, sys)
		noWriteBacks(t, twinSys)
	}
}

// noWriteBacks fails the test if any line of sys reached the media through a
// CLWB or a flush train.
func noWriteBacks(t *testing.T, sys *pmem.System) {
	t.Helper()
	if s := sys.Dev.Stats().Snapshot(); s.ClwbWritebacks != 0 || s.FlushTrains != 0 || s.FlushTrainLines != 0 {
		t.Fatalf("on the NoFlush view %d lines were written back, by %d trains of %d lines", s.ClwbWritebacks, s.FlushTrains, s.FlushTrainLines)
	}
}

// FuzzBTreeOps feeds arbitrary op streams to the model comparison.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 4, 0, 1, 1, 5, 1, 1, 2, 4, 0})
	// Fill 64 blocks in order, drain them from the front, refill every other.
	var fill []byte
	for b := byte(0); b < 64; b++ {
		fill = append(fill, 2, b)
	}
	for b := byte(0); b < 64; b++ {
		fill = append(fill, 3, b, 4, b)
	}
	for b := byte(0); b < 64; b += 2 {
		fill = append(fill, 2, b)
	}
	f.Add(fill)
	// Fill 48 blocks, then visit them in a stride that empties leaves all
	// over the tree, not just the first: scan each, stopping after 24 keys
	// down to 1 in turn, and drain it.
	var stops []byte
	for b := byte(0); b < 48; b++ {
		stops = append(stops, 2, b)
	}
	for i := byte(0); i < 48; i++ {
		b := i * 7 % 48
		stops = append(stops, 4+6*(i%24), b, 3, b)
	}
	f.Add(stops)
	// The four owners take turns. Each fills a block beside the others', so
	// its splits leave their fingers behind, and reads the block's first key,
	// which its own split may have left in the other half; another owner
	// reads it too, and a third inserts a key far off. Then every third
	// block is read by one owner, drained by another, which unlinks the
	// first one's leaf, and written again by the first.
	var turns []byte
	for b := byte(0); b < 48; b++ {
		a := b % 4
		turns = append(turns, 2+6*a, b, 5+6*a, b, 5+6*((a+1)%4), b, 6*((a+2)%4), b+100)
	}
	for b := byte(0); b < 48; b += 3 {
		a := b % 4
		turns = append(turns, 5+6*a, b, 3+6*((a+1)%4), b, 6*a, b, 5+6*((a+3)%4), b, 2+6*((a+2)%4), b, 1+6*a, b+100)
	}
	f.Add(turns)
	// Descending single keys split leaves in the middle, so the keys a
	// finger's bounds name move to a new right half under the other owners,
	// who then read and delete them.
	var desc []byte
	for k := 255; k >= 0; k-- {
		desc = append(desc, byte(6*(k%4)), byte(k), byte(5+6*((k+1)%4)), byte(k+9), byte(5+6*((k+2)%4)), byte(k+40))
		if k%5 == 0 {
			desc = append(desc, byte(1+6*((k+3)%4)), byte(k+20))
		}
	}
	f.Add(desc)
	// Drain the front of a three-level tree and fill it again: the inner
	// node that takes over the drained keys keeps its entry 0 key, now above
	// separators inserted after it, and a walk that ends in entry 0 must not
	// take that key for a bound. A third owner then reads the front block by
	// block.
	var front []byte
	for b := byte(0); b < 128; b++ {
		front = append(front, 2, b)
	}
	for b := byte(0); b < 48; b++ {
		front = append(front, 3+18, b)
	}
	for b := byte(0); b < 48; b++ {
		front = append(front, 2+6, b)
	}
	for b := byte(0); b < 48; b++ {
		front = append(front, 5+12, b)
	}
	f.Add(front)
	f.Fuzz(func(t *testing.T, data []byte) {
		btreeOpsAgainstModel(t, data, false)
		btreeOpsAgainstModel(t, data, true)
	})
}

// hashFuzzKeys is the key space of FuzzHashOps: 160 keys that collide on
// (bucket 5, fingerprint 0x3c) of a 64-bucket table — enough to fill ten
// buckets of one probe window through each other's overflow — then 96 keys
// spread over the table.
var hashFuzzKeys = sync.OnceValue(func() []uint64 {
	keys := bucketKeys(5, 0x3c, 160)
	for i := uint64(0); len(keys) < 256; i++ {
		keys = append(keys, 1<<40+i*0x9e3779b97f4a7c15)
	}
	return keys
})

// hashOpsAgainstModel reads ops as (opcode, operand) byte pairs and applies
// them to a 64-bucket hash index and a reference map: insert, delete, update
// and get of key operand, a run of 16 inserts from the colliding keys (so a
// short input fills buckets and chains them), and a crash of the
// persistent-cache system followed by OpenHash. Every result is compared on
// the spot; at the end every key must read back as the model has it. The
// index runs on a recording space, which checks that an insert or a delete
// writes back every line it stores; on the NoFlush view (noFlush) no line may
// reach the media through a write-back at all.
func hashOpsAgainstModel(t *testing.T, ops []byte, noFlush bool) {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 1 << 20, CacheBytes: 4 << 10, XPBufferBytes: 4 << 10})
	log := &spaceLog{}
	space := func() pmem.Space {
		if log.Space = sys.Space; noFlush {
			log.Space = sys.Space.NoFlush()
		}
		return log
	}
	h, err := NewHash(space(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	keys := hashFuzzKeys()
	clk := sim.NewClock()
	ref := map[uint64]uint64{}
	all := func(uint64) bool { return true }
	insert := func(k, v uint64) {
		log.reset()
		err := h.Insert(clk, k, v)
		_, dup := ref[k]
		switch {
		case dup && err != ErrDuplicate, !dup && err != nil && err != ErrFull:
			t.Fatalf("insert(%d): %v, in the model %v", k, err, dup)
		case err == nil:
			ref[k] = v
		}
		if missed := log.notWrittenBack(all); len(missed) > 0 {
			t.Fatalf("insert(%d) did not write back the lines %v it stored", k, missed)
		}
	}
	for n := uint64(0); len(ops) >= 2; ops, n = ops[2:], n+1 {
		k := keys[ops[1]]
		_, exists := ref[k]
		switch ops[0] % 6 {
		case 0:
			insert(k, n)
		case 1:
			log.reset()
			if got := h.Delete(clk, k); got != exists {
				t.Fatalf("delete(%d) = %v, in the model %v", k, got, exists)
			}
			if missed := log.notWrittenBack(all); len(missed) > 0 {
				t.Fatalf("delete(%d) did not write back the lines %v it stored", k, missed)
			}
			delete(ref, k)
		case 2:
			if got := h.Update(clk, k, n); got != exists {
				t.Fatalf("update(%d) = %v, in the model %v", k, got, exists)
			}
			if exists {
				ref[k] = n
			}
		case 3:
			for i := 0; i < 16; i++ {
				insert(keys[(int(ops[1])+i)%160], n)
			}
		case 4:
			sys = sys.Crash()
			if h, err = OpenHash(space(), clk, 0); err != nil {
				t.Fatal(err)
			}
		default:
			got, ok := h.Get(clk, k)
			if want := ref[k]; ok != exists || got != want {
				t.Fatalf("get(%d) = %d,%v, model %d,%v", k, got, ok, want, exists)
			}
		}
	}
	for _, k := range keys {
		got, ok := h.Get(clk, k)
		if want, exists := ref[k]; ok != exists || got != want {
			t.Fatalf("at the end get(%d) = %d,%v, model %d,%v", k, got, ok, want, exists)
		}
	}
	if noFlush {
		noWriteBacks(t, sys)
	}
}

// FuzzHashOps feeds arbitrary op streams to the model comparison. The seeds
// under testdata/fuzz/FuzzHashOps chain ten buckets of colliding keys and
// delete from the front of each (the moved-in last entries come from past the
// first line), probe for absent keys under a fingerprint half the bucket
// shares, and reopen after every operation on a full bucket.
func FuzzHashOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 200, 5, 1, 2, 1, 1, 1, 5, 1, 4, 0, 5, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		hashOpsAgainstModel(t, data, false)
		hashOpsAgainstModel(t, data, true)
	})
}
