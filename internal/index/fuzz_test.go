package index

import (
	"sync"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// btreeOpsAgainstModel reads ops as (opcode, operand) byte pairs and applies
// them to a tree and a reference map. Single-key ops address keys 0..255 of
// the 4096-key space; run ops insert or delete the 16 keys of one of its 256
// blocks in order, so a short input fills and drains whole leaves and reaches
// three levels. Every result is compared on the spot; at the end the tree
// must be sound and scan the model.
func btreeOpsAgainstModel(t *testing.T, ops []byte) {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 4 << 20, CacheBytes: 64 << 10, XPBufferBytes: 16 << 10})
	bt, err := NewBTree(sys.Space, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewClock()
	ref := map[uint64]uint64{}
	insert := func(k uint64) {
		err := bt.Insert(clk, k, k^0x55)
		if _, dup := ref[k]; dup != (err == ErrDuplicate) || (!dup && err != nil) {
			t.Fatalf("insert(%d): %v, in the model %v", k, err, dup)
		}
		ref[k] = k ^ 0x55
	}
	remove := func(k uint64) {
		_, want := ref[k]
		if got := bt.Delete(clk, k); got != want {
			t.Fatalf("delete(%d) = %v, in the model %v", k, got, want)
		}
		delete(ref, k)
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		k := uint64(ops[1])
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
			}
		case 4:
			want := sortedFrom(ref, k*16)
			n := 0
			if err := bt.Scan(clk, k*16, func(key, val uint64) bool {
				if n >= len(want) || key != want[n] || val != ref[key] {
					t.Fatalf("scan from %d: key %d at %d, model %v", k*16, key, n, want[:min(n+1, len(want))])
				}
				n++
				return n < 24
			}); err != nil {
				t.Fatal(err)
			}
			if n < min(24, len(want)) {
				t.Fatalf("scan from %d stopped after %d of %d keys", k*16, n, len(want))
			}
		default:
			got, ok := bt.Get(clk, k*16)
			if want, exists := ref[k*16]; ok != exists || got != want {
				t.Fatalf("get(%d) = %d,%v, model %d,%v", k*16, got, ok, want, exists)
			}
		}
	}
	checkSound(t, bt)
	checkAgainstModel(t, bt, ref, 0)
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
	f.Fuzz(func(t *testing.T, data []byte) { btreeOpsAgainstModel(t, data) })
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
// the spot; at the end every key must read back as the model has it.
func hashOpsAgainstModel(t *testing.T, ops []byte) {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 1 << 20, CacheBytes: 4 << 10, XPBufferBytes: 4 << 10})
	h, err := NewHash(sys.Space, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	keys := hashFuzzKeys()
	clk := sim.NewClock()
	ref := map[uint64]uint64{}
	insert := func(k, v uint64) {
		err := h.Insert(clk, k, v)
		_, dup := ref[k]
		switch {
		case dup && err != ErrDuplicate, !dup && err != nil && err != ErrFull:
			t.Fatalf("insert(%d): %v, in the model %v", k, err, dup)
		case err == nil:
			ref[k] = v
		}
	}
	for n := uint64(0); len(ops) >= 2; ops, n = ops[2:], n+1 {
		k := keys[ops[1]]
		_, exists := ref[k]
		switch ops[0] % 6 {
		case 0:
			insert(k, n)
		case 1:
			if got := h.Delete(clk, k); got != exists {
				t.Fatalf("delete(%d) = %v, in the model %v", k, got, exists)
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
			if h, err = OpenHash(sys.Space, clk, 0); err != nil {
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
}

// FuzzHashOps feeds arbitrary op streams to the model comparison. The seeds
// under testdata/fuzz/FuzzHashOps chain ten buckets of colliding keys and
// delete from the front of each (the moved-in last entries come from past the
// first line), probe for absent keys under a fingerprint half the bucket
// shares, and reopen after every operation on a full bucket.
func FuzzHashOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 200, 5, 1, 2, 1, 1, 1, 5, 1, 4, 0, 5, 200})
	f.Fuzz(func(t *testing.T, data []byte) { hashOpsAgainstModel(t, data) })
}
