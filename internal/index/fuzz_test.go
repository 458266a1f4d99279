package index

import (
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
