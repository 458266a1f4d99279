package pmem

import (
	"testing"

	"falcon/internal/sim"
)

// xpIndexAgainstModel replays ops — one byte each: the low two bits pick
// put, get or del (del twice as often, so a full table keeps churning), the
// rest pick one of 64 block addresses — on an index sized for slots entries
// and on a map, and compares every answer and, after every op, every key. A
// put at full occupancy is skipped, as a bank never holds more blocks than
// slots. The keys are few and the table small, so probe runs collide, wrap
// around the end of the table and get holes punched in their middle.
func xpIndexAgainstModel(t *testing.T, slots int, ops []byte) {
	x := newXPIndex(slots)
	model := map[uint64]int32{}
	for i, op := range ops {
		key := uint64(op>>2) * BlockSize * 5 // multiples of a bank count, as a bank sees them
		switch op & 3 {
		case 0:
			if _, ok := model[key]; !ok && len(model) < slots {
				x.put(key, int32(i))
				model[key] = int32(i)
			}
		case 1:
			want, ok := model[key]
			if !ok {
				want = -1
			}
			if got := x.get(key); got != want {
				t.Fatalf("op %d: get(%#x) = %d, want %d", i, key, got, want)
			}
		default:
			x.del(key)
			delete(model, key)
		}
		used := 0
		for _, e := range x.ents {
			if e.key != 0 {
				used++
			}
		}
		if used != len(model) {
			t.Fatalf("op %d: %d entries in use, model holds %d", i, used, len(model))
		}
		for k, want := range model {
			if got := x.get(k); got != want {
				t.Fatalf("op %d: key %#x unreachable after the op: get = %d, want %d", i, k, got, want)
			}
		}
	}
}

func TestXPIndexMatchesMap(t *testing.T) {
	for _, slots := range []int{1, 2, 3, 8, 64} {
		st := uint64(slots)
		ops := make([]byte, 20000)
		for i := range ops {
			ops[i] = byte(rng(&st))
			if i < 4*slots {
				ops[i] &^= 3 // fill to capacity first
			}
		}
		xpIndexAgainstModel(t, slots, ops)
	}
}

// FuzzXPIndex feeds arbitrary op streams to the model comparison; the first
// byte picks the capacity.
func FuzzXPIndex(f *testing.F) {
	f.Add([]byte{8, 0, 4, 8, 12, 16, 20, 24, 28, 2, 5, 9, 18, 21, 0, 1})
	f.Add([]byte{1, 0, 1, 4, 2, 4, 5, 3, 1})
	f.Add([]byte{3, 252, 248, 244, 254, 249, 240, 246, 245, 241})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		xpIndexAgainstModel(t, 1+int(data[0]%16), data[1:])
	})
}

// TestTearOneKeepsIndexConsistent drives the crash-time delete path: tearing
// single-line blocks out of a full bank must unhook exactly those blocks from
// the index, the LRU list and the free list's complement, and the survivors
// must still be found (and merge) afterwards.
func TestTearOneKeepsIndexConsistent(t *testing.T) {
	dev := NewDevice(1 << 20)
	b := NewXPBuffer(dev, 8*BlockSize, 1)
	clk := sim.NewClock()
	var line [LineSize]byte
	for i := 0; i < 8; i++ {
		line[0] = byte(i + 1)
		b.WriteLine(clk, uint64(i)*BlockSize, &line) // one valid line per block: a tear empties the slot
	}
	bank := &b.banks[0]
	if bank.free != -1 {
		t.Fatal("bank not full after eight distinct blocks")
	}
	for torn := 1; torn <= 8; torn++ {
		b.tearOne(&FaultPlan{Seed: uint64(torn) * 7919})
		live := 0
		for si := range bank.slots {
			s := &bank.slots[si]
			if got := bank.index.get(s.blockAddr); s.used && got != int32(si) {
				t.Fatalf("after %d tears: live block %#x maps to slot %d, want %d", torn, s.blockAddr, got, si)
			}
			if s.used {
				live++
			}
		}
		onList := 0
		for si := bank.head; si != -1; si = bank.slots[si].next {
			onList++
		}
		if live != 8-torn || onList != live {
			t.Fatalf("after %d tears: %d live slots, %d on the LRU list, want %d", torn, live, onList, 8-torn)
		}
		for i := 0; i < 8; i++ {
			if si := bank.index.get(uint64(i) * BlockSize); si >= 0 && !bank.slots[si].used {
				t.Fatalf("after %d tears: torn block %d still indexed", torn, i)
			}
		}
	}
	// Every block is gone; the bank must take eight new ones without evicting.
	before := dev.Stats().Snapshot().MediaWrites
	for i := 8; i < 16; i++ {
		b.WriteLine(clk, uint64(i)*BlockSize, &line)
	}
	if w := dev.Stats().Snapshot().MediaWrites - before; w != 0 {
		t.Fatalf("refilling the torn-empty bank evicted %d blocks", w)
	}
}
