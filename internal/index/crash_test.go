package index

import (
	"errors"
	"math/rand"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

type treeOp struct {
	del bool
	key uint64
}

// crashStream is a seeded op stream over 2000 keys that makes every kind of
// structural change: ascending fills (splits at the end, up to a root over
// inner nodes), random inserts (splits in the middle), drains of whole ranges
// from either side (leaves and inner nodes leave the tree, the root hands
// over) and refills (freed nodes come back).
func crashStream(seed int64) []treeOp {
	rng := rand.New(rand.NewSource(seed))
	const keys = 2000
	var ops []treeOp
	run := func(del bool, lo, hi, step int) {
		for k := lo; (step > 0 && k < hi) || (step < 0 && k > hi); k += step {
			ops = append(ops, treeOp{del, uint64(k)})
		}
	}
	run(false, 0, keys, 1)
	for phase := 0; phase < 6; phase++ {
		lo := rng.Intn(keys)
		hi := lo + 1 + rng.Intn(keys-lo)
		switch rng.Intn(4) {
		case 0:
			run(true, lo, hi, 1)
		case 1:
			run(true, hi-1, lo-1, -1)
		case 2:
			run(false, lo, hi, 1)
		default:
			for i := 0; i < 400; i++ {
				ops = append(ops, treeOp{rng.Intn(3) == 0, uint64(rng.Intn(keys))})
			}
		}
	}
	run(true, 0, keys, 1)
	run(false, 0, keys, 7)
	return ops
}

// applyOp applies op to the tree and, once it returned, to the model.
func applyOp(t *testing.T, bt *BTreeIndex, clk *sim.Clock, ref map[uint64]uint64, op treeOp) {
	_, exists := ref[op.key]
	if op.del {
		if got := bt.Delete(clk, op.key); got != exists {
			t.Fatalf("delete(%d) = %v, model %v", op.key, got, exists)
		}
		delete(ref, op.key)
		return
	}
	if err := bt.Insert(clk, op.key, op.key+1); exists != errors.Is(err, ErrDuplicate) || (!exists && err != nil) {
		t.Fatalf("insert(%d): %v, model has it: %v", op.key, err, exists)
	}
	ref[op.key] = op.key + 1
}

// runUntilCrash builds a tree on a fresh system, arms the plan and applies
// ops until the injected crash fires. It returns the system, the model as of
// the last completed op and the index of the op in flight (len(ops) if the
// plan never fired).
func runUntilCrash(t *testing.T, mode pmem.Mode, cacheBytes int, ops []treeOp, plan *pmem.FaultPlan) (sys *pmem.System, ref map[uint64]uint64, inFlight int) {
	sys = pmem.NewSystem(pmem.Config{DeviceBytes: 4 << 20, Mode: mode, CacheBytes: cacheBytes})
	bt, err := NewBTree(sys.Space, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFaults(plan)
	clk := sim.NewClock()
	ref = map[uint64]uint64{}
	defer func() {
		if r := recover(); r != nil && !pmem.IsInjectedCrash(r) {
			panic(r)
		}
	}()
	for inFlight = 0; inFlight < len(ops); inFlight++ {
		applyOp(t, bt, clk, ref, ops[inFlight])
	}
	return sys, ref, inFlight
}

// TestBTreeCrashAtEveryStore crashes a persistent-cache system at the Nth
// store of an insert/delete stream, for N across the whole stream, reopens
// the tree and demands: the structure passes checkInvariants; a scan returns
// the model with the op in flight either applied or not; every other key
// reads back; the rest of the stream runs on the recovered tree and still
// matches the model. What a crash may leave is bounded: the nodes of one
// unlink leaked, one empty leaf still in the tree or in the chain, a root
// with one child — and, the one state that is not a valid tree, the right
// half of one split that scans reach and descents do not (pinned here, see
// DESIGN.md §3).
func TestBTreeCrashAtEveryStore(t *testing.T) {
	seeds, stride := 3, uint64(23)
	if testing.Short() {
		seeds, stride = 1, 97
	}
	var sawLeak, sawEmpty, sawDeadHop, sawLoneChild, sawOffTree, trials int
	for seed := 1; seed <= seeds; seed++ {
		ops := crashStream(int64(seed))
		count := &pmem.FaultPlan{Event: pmem.FaultStore}
		runUntilCrash(t, pmem.EADR, 0, ops, count)
		stores := count.Counts()[pmem.FaultStore]
		for n := uint64(seed); n <= stores; n += stride {
			sys, ref, at := runUntilCrash(t, pmem.EADR, 0, ops, &pmem.FaultPlan{Event: pmem.FaultStore, N: n})
			if at == len(ops) {
				t.Fatalf("seed %d: no crash at store %d of %d", seed, n, stores)
			}
			trials++
			clk := sim.NewClock()
			bt, err := OpenBTree(sys.Crash().Space, clk, 0)
			if err != nil {
				t.Fatal(err)
			}
			rep := checkInvariants(t, bt)
			op := ops[at]
			if rep.leaked > maxDepth || rep.emptyLeaves+rep.deadHops > 1 || rep.offTree > 1 || (rep.offTree == 1 && op.del) {
				t.Fatalf("seed %d store %d (op %d %+v): %+v", seed, n, at, op, rep)
			}
			sawLeak += min(rep.leaked, 1)
			sawEmpty += rep.emptyLeaves
			sawDeadHop += rep.deadHops
			sawLoneChild += rep.loneChild
			sawOffTree += rep.offTree

			// The op in flight happened or did not: the model takes the key
			// as a scan finds it, and everything else must match.
			delete(ref, op.key)
			if keys := scanKeys(t, bt, op.key, func(k uint64) uint64 { return k + 1 }); len(keys) > 0 && keys[0] == op.key {
				ref[op.key] = op.key + 1
			}
			checkAgainstModel(t, bt, ref, 0)
			if rep.offTree == 1 {
				continue // descents miss the keys of that leaf
			}
			for k := op.key % 3; k < 2000; k += 3 {
				got, ok := bt.Get(clk, k)
				if want, exists := ref[k]; ok != exists || got != want {
					t.Fatalf("seed %d store %d: get(%d) = %d,%v, model %d,%v", seed, n, k, got, ok, want, exists)
				}
			}
			for _, op := range ops[at+1 : min(at+1+600, len(ops))] {
				applyOp(t, bt, clk, ref, op)
			}
			checkInvariants(t, bt)
			checkAgainstModel(t, bt, ref, 0)
		}
	}
	t.Logf("%d crash points: %d left a leak, %d an empty leaf in the tree, %d one in the chain, %d a root with one child, %d a split's right half off the tree",
		trials, sawLeak, sawEmpty, sawDeadHop, sawLoneChild, sawOffTree)
	if !testing.Short() && (sawLeak == 0 || sawEmpty == 0 || sawDeadHop == 0 || sawOffTree == 0) {
		t.Fatal("the crash points missed a state the unlink or the split passes through")
	}
}

// TestBTreeADRCrashScanTerminates: without a persistent cache the tree's
// stores reach the media in no order, and reused nodes can leave a chain that
// loops or descends. Nothing is promised about the contents then, only that
// reopening and scanning terminate and that the keys a scan returns ascend.
func TestBTreeADRCrashScanTerminates(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	corrupt := 0
	for i := 0; i < trials; i++ {
		ops := crashStream(int64(i%5 + 1))
		n := 1 + uint64(i)*7919%uint64(2*len(ops))
		sys, _, _ := runUntilCrash(t, pmem.ADR, 16<<10, ops, &pmem.FaultPlan{Event: pmem.FaultStore, N: n})
		clk := sim.NewClock()
		bt, err := OpenBTree(sys.Crash().Space, clk, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, from := range []uint64{0, 700, 1999} {
			least := from
			err := bt.Scan(clk, from, func(k, _ uint64) bool {
				if k < least {
					t.Fatalf("trial %d: scan from %d returned %d after %d", i, from, k, least-1)
				}
				least = k + 1
				return true
			})
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatal(err)
			}
			if err != nil {
				corrupt++
			}
		}
	}
	t.Logf("%d of %d scans ended with ErrCorrupt", corrupt, 3*trials)
}
