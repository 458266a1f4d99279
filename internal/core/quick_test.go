package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/pmem"
)

// The model: committed rows in a map, and over it one transaction's view — its
// own inserts, updates and deletes — which is what the access set and the op
// list must add up to. It encodes what the engine does today, including two
// answers pinned as they are (see Txn.Delete): Delete of a key the transaction
// inserted is ErrNotFound and the insert stays; Insert of a key the
// transaction deleted is ErrDuplicateKey. A scan goes through the index, so it
// passes the transaction's own inserts by.

type kvOpKind int

const (
	kvInsert kvOpKind = iota
	kvUpdate
	kvDelete
	kvRead
	kvReadField
	kvReadForUpdate
	kvScan
)

type kvOp struct {
	kind kvOpKind
	k    uint64
	off  int    // kvUpdate
	data []byte // kvUpdate: the bytes; kvInsert: the payload
	col  int    // kvReadField
}

// kvView is one transaction's view of the table.
type kvView struct {
	ref      map[uint64][]byte // committed rows (not written through the view)
	inserted map[uint64][]byte
	updated  map[uint64][]byte
	deleted  map[uint64]bool
}

func newKVView(ref map[uint64][]byte) *kvView {
	return &kvView{ref: ref, inserted: map[uint64][]byte{}, updated: map[uint64][]byte{}, deleted: map[uint64]bool{}}
}

// row returns the row the transaction sees under k, nil for none.
func (v *kvView) row(k uint64) []byte {
	if p, ok := v.inserted[k]; ok {
		return p
	}
	if v.deleted[k] {
		return nil
	}
	if p, ok := v.updated[k]; ok {
		return p
	}
	return v.ref[k]
}

func (v *kvView) insert(k uint64, p []byte) error {
	if _, ok := v.inserted[k]; ok {
		return ErrDuplicateKey
	}
	if _, ok := v.ref[k]; ok {
		return ErrDuplicateKey // also when the transaction deleted it: pinned
	}
	v.inserted[k] = slices.Clone(p)
	return nil
}

func (v *kvView) update(k uint64, off int, data []byte) error {
	p := v.row(k)
	if p == nil {
		return ErrNotFound
	}
	if _, own := v.inserted[k]; !own {
		if _, ok := v.updated[k]; !ok {
			p = slices.Clone(p)
			v.updated[k] = p
		}
	}
	copy(p[off:], data)
	return nil
}

func (v *kvView) delete(k uint64) error {
	if _, own := v.inserted[k]; own {
		return ErrNotFound // pinned: the pending insert is not in the index
	}
	if v.row(k) == nil {
		return ErrNotFound
	}
	v.deleted[k] = true
	return nil
}

// commit folds the view into the committed rows.
func (v *kvView) commit() {
	for k, p := range v.updated {
		v.ref[k] = p
	}
	for k := range v.deleted {
		delete(v.ref, k)
	}
	for k, p := range v.inserted {
		v.ref[k] = p
	}
}

// scan returns what a scan from k over at most limit rows sees: committed
// keys in order, the transaction's deletes skipped, its updates applied, its
// inserts absent.
func (v *kvView) scan(from uint64, limit int) (keys []uint64, rows [][]byte) {
	for k := range v.ref {
		if k >= from && !v.deleted[k] {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	for _, k := range keys {
		p := v.ref[k]
		if u, ok := v.updated[k]; ok {
			p = u
		}
		rows = append(rows, p)
	}
	return keys, rows
}

// kvPayload builds a 64-byte row for k with random contents.
func kvPayload(rng *rand.Rand, k uint64) []byte {
	p := make([]byte, kvSchema().TupleSize())
	rng.Read(p)
	kvSchema().PutUint64(p, 0, k)
	return p
}

// kvRandomOps draws a transaction: mostly ops on one focus key, so that the
// same row is touched several ways in one attempt.
func kvRandomOps(rng *rand.Rand, ordered bool) []kvOp {
	size := kvSchema().TupleSize()
	focus := uint64(rng.Intn(40))
	ops := make([]kvOp, 1+rng.Intn(6))
	for i := range ops {
		k := focus
		if rng.Intn(4) == 0 {
			k = uint64(rng.Intn(40))
		}
		op := kvOp{k: k}
		switch r := rng.Intn(20); {
		case r < 4:
			op.kind, op.data = kvInsert, kvPayload(rng, k)
		case r < 10:
			op.kind = kvUpdate
			op.off = 8 + rng.Intn(size-8) // never the key column
			op.data = make([]byte, 1+rng.Intn(size-op.off))
			rng.Read(op.data)
		case r < 12:
			op.kind = kvDelete
		case r < 15:
			op.kind = kvRead
		case r < 17:
			op.kind, op.col = kvReadField, 1+rng.Intn(2)
		case r < 19 || !ordered:
			op.kind = kvReadForUpdate
		default:
			op.kind = kvScan
		}
		ops[i] = op
	}
	return ops
}

// kvScripts are the sequences the access set's contract names, on key k.
func kvScripts(rng *rand.Rand, k uint64) [][]kvOp {
	upd := func(off, n int) kvOp {
		d := make([]byte, n)
		rng.Read(d)
		return kvOp{kind: kvUpdate, k: k, off: off, data: d}
	}
	read, field := kvOp{kind: kvRead, k: k}, kvOp{kind: kvReadField, k: k, col: 2}
	rfu, del := kvOp{kind: kvReadForUpdate, k: k}, kvOp{kind: kvDelete, k: k}
	ins := kvOp{kind: kvInsert, k: k, data: kvPayload(rng, k)}
	return [][]kvOp{
		{ins, upd(8, 8), read, upd(12, 30), field, rfu}, // insert -> update -> read
		{del, ins},                                  // delete of an own insert, insert of an own delete
		{rfu, upd(8, 8), read},                      // ReadForUpdate -> update -> read
		{upd(10, 20), upd(20, 30), read, field},     // overlapping ranges
		{read, upd(8, 8), read, rfu},                // shared, then upgraded, then read under the write lock
		{read, read, upd(16, 4)},                    // a second read of the row
		{upd(8, 8), del, read, rfu, upd(8, 8), del}, // delete after update, then everything after delete
		{ins, del, read},
	}
}

// quickKVModel drives an engine with random committed and rolled-back
// multi-operation transactions and checks every answer, the live state and the
// state after a crash against the model.
func quickKVModel(t *testing.T, cfg Config) {
	t.Helper()
	size := kvSchema().TupleSize()
	f := func(seed int64) bool {
		cfg := cfg
		cfg.Threads = 2
		kind, ordered := index.Hash, seed%2 == 0
		if ordered {
			kind = index.BTree
		}
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 128 << 20})
		e, err := New(sys, cfg, kvSpec(kind, 4000))
		if err != nil {
			t.Fatal(err)
		}
		tbl := e.Table("kv")
		rng := rand.New(rand.NewSource(seed))
		ref := map[uint64][]byte{}
		buf := make([]byte, size)

		// run executes ops as one transaction that rolls back after cut ops
		// (cut < 0: commits) and reports the first answer the model did not give.
		run := func(worker int, ops []kvOp, cut int) error {
			var view *kvView
			var bad error
			check := func(i int, got, want error) bool {
				if !errors.Is(got, want) {
					bad = fmt.Errorf("op %d of %+v: %v, model says %v", i, ops, got, want)
					if errors.Is(got, ErrConflict) {
						bad = ErrConflict // one worker at a time: only slot-reclaim backpressure; Run retries
					}
				}
				return bad == nil
			}
			err := e.Run(worker, func(tx *Txn) error {
				view, bad = newKVView(ref), nil // a retry starts over
				for i, op := range ops {
					if i == cut {
						return ErrRollback
					}
					switch op.kind {
					case kvInsert:
						check(i, tx.Insert(tbl, op.k, op.data), view.insert(op.k, op.data))
					case kvUpdate:
						check(i, tx.Update(tbl, op.k, op.off, op.data), view.update(op.k, op.off, op.data))
					case kvDelete:
						check(i, tx.Delete(tbl, op.k), view.delete(op.k))
					case kvRead, kvReadForUpdate, kvReadField:
						off, n := 0, size
						var got error
						switch op.kind {
						case kvRead:
							got = tx.Read(tbl, op.k, buf)
						case kvReadForUpdate:
							got = tx.ReadForUpdate(tbl, op.k, buf)
						default:
							off, n = tbl.schema.Offset(op.col), tbl.schema.Column(op.col).Size
							got = tx.ReadField(tbl, op.k, op.col, buf)
						}
						want := view.row(op.k)
						if want == nil {
							check(i, got, ErrNotFound)
						} else if check(i, got, nil) && !bytes.Equal(buf[:n], want[off:off+n]) {
							bad = fmt.Errorf("op %d of %+v: read %x, model says %x", i, ops, buf[:n], want[off:off+n])
						}
					case kvScan:
						keys, rows := view.scan(op.k, 5)
						j := 0
						_, got := tx.Scan(tbl, op.k, 5, func(k uint64, p []byte) bool {
							if j >= len(keys) || k != keys[j] || !bytes.Equal(p, rows[j]) {
								bad = fmt.Errorf("op %d of %+v: scan row %d is key %d %x, model says %v %x", i, ops, j, k, p, keys, rows)
							}
							j++
							return bad == nil
						})
						if check(i, got, nil) && j != len(keys) {
							bad = fmt.Errorf("op %d of %+v: scan saw %d rows, model says %v", i, ops, j, keys)
						}
					}
					if bad == ErrConflict {
						return bad
					}
					if bad != nil {
						return ErrRollback
					}
				}
				if cut >= 0 {
					return ErrRollback // cut == len(ops): everything ran, nothing stays
				}
				return nil
			})
			switch {
			case bad != nil:
				return bad
			case cut >= 0 && errors.Is(err, ErrRollback):
				return nil
			case err != nil:
				return fmt.Errorf("%+v: %w", ops, err)
			}
			view.commit()
			return nil
		}

		var txns [][]kvOp
		for k := uint64(0); k < 6; k++ { // each script on an absent and on a present key
			txns = append(txns, kvScripts(rng, k)...)
			txns = append(txns, kvScripts(rng, k)...)
		}
		for len(txns) < 200 {
			txns = append(txns, kvRandomOps(rng, ordered))
		}
		for i, ops := range txns {
			cut := -1
			if rng.Intn(4) == 0 {
				cut = rng.Intn(len(ops) + 1)
			}
			if err := run(i%2, ops, cut); err != nil {
				t.Logf("seed %d txn %d (cut %d): %v", seed, i, cut, err)
				return false
			}
			if i%8 == 0 { // the committed state, through a read-only transaction
				k := uint64(rng.Intn(40))
				err := e.RunRO(i%2, func(tx *Txn) error { return tx.Read(tbl, k, buf) })
				if want, live := ref[k]; live {
					if err != nil || !bytes.Equal(buf, want) {
						t.Logf("seed %d after txn %d: key %d reads %x (%v), model says %x", seed, i, k, buf, err, want)
						return false
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Logf("seed %d after txn %d: absent key %d reads %v", seed, i, k, err)
					return false
				}
			}
		}

		e2, _, err := Recover(e.System().Crash(), cfg)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		tbl2 := e2.Table("kv")
		for k := uint64(0); k < 40; k++ {
			err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl2, k, buf) })
			if want, live := ref[k]; live {
				if err != nil || !bytes.Equal(buf, want) {
					t.Logf("seed %d after recovery: key %d reads %x (%v), model says %x", seed, k, buf, err, want)
					return false
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Logf("seed %d after recovery: absent key %d reads %v", seed, k, err)
				return false
			}
		}
		return true
	}
	// Each iteration builds and crash-recovers a full engine; -short (the
	// race-enabled CI lane) keeps the property check but trims the sample
	// count so the per-variant tests stay within the CI budget.
	max := 4
	if testing.Short() {
		max = 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max, Rand: rand.New(rand.NewSource(int64(cfg.CC) + 1))}); err != nil {
		t.Fatal(err)
	}
}

// The model over the four presets under every CC algorithm (Falcon's six are
// split over two tests that predate the split).
func quickKVModelAlgos(t *testing.T, cfg Config, algos ...cc.Algo) {
	for _, algo := range algos {
		cfg.CC = algo
		t.Run(algo.String(), func(t *testing.T) { quickKVModel(t, cfg) })
	}
}

func TestQuickKVModelFalcon(t *testing.T) {
	quickKVModelAlgos(t, FalconConfig(), cc.TwoPL, cc.TO, cc.OCC)
}
func TestQuickKVModelMVFalcon(t *testing.T) {
	quickKVModelAlgos(t, FalconConfig(), cc.MV2PL, cc.MVTO, cc.MVOCC)
}
func TestQuickKVModelInp(t *testing.T)  { quickKVModelAlgos(t, InpConfig(), cc.All...) }
func TestQuickKVModelOutp(t *testing.T) { quickKVModelAlgos(t, OutpConfig(), cc.All...) }
func TestQuickKVModelZenS(t *testing.T) { quickKVModelAlgos(t, ZenSConfig(), cc.All...) }

// TestOCCSecondReadKeepsFirstWord: under OCC a row read twice is validated
// against the version the first read saw. Between the two reads another worker
// commits an update; the second read returns the new value — a non-repeatable
// read — and the commit must fail its validation. Were the second read to
// refresh the recorded word, validation would compare the row with itself and
// pass.
func TestOCCSecondReadKeepsFirstWord(t *testing.T) {
	for _, algo := range []cc.Algo{cc.OCC, cc.MVOCC} {
		for _, second := range []string{"Read", "ReadForUpdate"} {
			t.Run(algo.String()+"/"+second, func(t *testing.T) {
				cfg := FalconConfig()
				cfg.CC = algo
				e := newKVEngine(t, cfg)
				kv := e.Table("kv")
				s := kv.Schema()
				for k := uint64(1); k <= 2; k++ {
					if err := e.Run(0, func(tx *Txn) error { return tx.Insert(kv, k, encodeKV(s, k, 100)) }); err != nil {
						t.Fatal(err)
					}
				}
				buf := make([]byte, s.TupleSize())
				tx := e.Begin(0)
				if err := tx.Read(kv, 1, buf); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(1, func(other *Txn) error { return other.UpdateField(kv, 1, 1, i64le(200)) }); err != nil {
					t.Fatal(err)
				}
				var err error
				if second == "Read" {
					err = tx.Read(kv, 1, buf)
				} else {
					err = tx.ReadForUpdate(kv, 1, buf)
				}
				if err != nil {
					t.Fatal(err) // the abort stays at validation
				}
				if got := s.GetInt64(buf, 1); got != 200 {
					t.Fatalf("second read = %d, want the committed 200", got)
				}
				if err := tx.UpdateField(kv, 2, 1, i64le(1)); err != nil { // a write, so the commit validates
					t.Fatal(err)
				}
				if err := tx.Commit(); !errors.Is(err, ErrConflict) {
					t.Fatalf("commit after a non-repeatable read: %v, want ErrConflict", err)
				}
				tx.Abort()
			})
		}
	}
}

// TestWriteTSInFirstApplyOrder: the commit stamps one durable writer timestamp
// per written slot in the order the write set first applies to each — log
// order — which is not the order the locks were taken in. The order decides
// which header line the simulated cache sees first, so every virtual-time
// golden depends on it. The test stops the commit after each of its stores in
// turn and looks at the two headers: the row updated first is never unstamped
// while the other carries the TID.
func TestWriteTSInFirstApplyOrder(t *testing.T) {
	const a, b = 1, 2 // locked a then b, updated b then a
	stamped := 0
	for n := uint64(1); ; n++ {
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
		cfg := FalconConfig()
		cfg.Threads = 1
		e, err := New(sys, cfg, kvSpec(index.Hash, 1000))
		if err != nil {
			t.Fatal(err)
		}
		kv := e.Table("kv")
		s := kv.Schema()
		for _, k := range []uint64{a, b} {
			if err := e.Run(0, func(tx *Txn) error { return tx.Insert(kv, k, encodeKV(s, k, 0)) }); err != nil {
				t.Fatal(err)
			}
		}
		slotA, _ := kv.primary.Get(nil, a)
		slotB, _ := kv.primary.Get(nil, b)
		buf := make([]byte, s.TupleSize())
		tx := e.Begin(0)
		for _, err := range []error{
			tx.ReadForUpdate(kv, a, buf), tx.ReadForUpdate(kv, b, buf),
			tx.UpdateField(kv, b, 1, i64le(7)), tx.UpdateField(kv, a, 1, i64le(7)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		sys.SetFaults(&pmem.FaultPlan{Event: pmem.FaultStore, N: n})
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if !pmem.IsInjectedCrash(r) {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return false
		}()
		tsA, tsB := kv.heap.ReadTS(nil, slotA), kv.heap.ReadTS(nil, slotB)
		if tsA == tx.tid && tsB != tx.tid {
			t.Fatalf("stopped after store %d of the commit: %d (locked first, updated second) is stamped and %d is not", n, a, b)
		}
		if tsB == tx.tid && tsA != tx.tid {
			stamped++
		}
		if !crashed {
			break
		}
	}
	if stamped == 0 {
		t.Fatal("no store of the commit fell between the two stamps: the test saw nothing")
	}
}

// TestNoVersionOfAnUncommittedSlot: an update folded into the transaction's
// own insert must not publish a "pre-image" of the fresh slot. A snapshot
// older than the insert would find that version in the chain and read a row
// made of whatever the slot held before, where it must find none.
func TestNoVersionOfAnUncommittedSlot(t *testing.T) {
	cfg := FalconConfig()
	cfg.CC = cc.MV2PL
	e := newKVEngine(t, cfg)
	kv := e.Table("kv")
	s := kv.Schema()
	old := e.BeginRO(1) // a snapshot from before the insert
	if err := e.Run(0, func(tx *Txn) error {
		if err := tx.Insert(kv, 9, encodeKV(s, 9, 1)); err != nil {
			return err
		}
		return tx.UpdateField(kv, 9, 1, i64le(2))
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.TupleSize())
	if err := old.Read(kv, 9, buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a snapshot older than the insert reads %x (%v), want ErrNotFound", buf, err)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnAllocs puts a floor under the ledger's core.txn_allocs.falcon: the
// heap allocations of a one-operation transaction on Falcon, through
// Engine.Run. The attempt's access set and op list keep their capacity in the
// worker's scratch, so a steady-state attempt grows neither.
func TestTxnAllocs(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	kv := e.Table("kv")
	s := kv.Schema()
	if err := e.Run(0, func(tx *Txn) error { return tx.Insert(kv, 1, encodeKV(s, 1, 1)) }); err != nil {
		t.Fatal(err)
	}
	val, buf, row := i64le(5), make([]byte, s.TupleSize()), encodeKV(s, 2, 2)
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"one-op update", txnAllocsUpdate, func() { _ = e.Run(0, func(tx *Txn) error { return tx.UpdateField(kv, 1, 1, val) }) }},
		{"one-op read", txnAllocsRead, func() { _ = e.RunRO(0, func(tx *Txn) error { return tx.Read(kv, 1, buf) }) }},
		{"an insert, then a delete", txnAllocsInsertDelete, func() {
			_ = e.Run(0, func(tx *Txn) error { return tx.Insert(kv, 2, row) })
			_ = e.Run(0, func(tx *Txn) error { return tx.Delete(kv, 2) })
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}

// The ceilings of TestTxnAllocs. An update allocates its Txn, the window's log
// handle (wal.Window.Begin) and the op the apply reads back from the record
// (wal's ReadOp); a read its Txn alone; an insert and a delete three each, none
// of them for the line image the insert publishes or the header the delete
// stores (heap.Publish, heap.MarkDeleted).
const (
	txnAllocsUpdate       = 3
	txnAllocsRead         = 1
	txnAllocsInsertDelete = 6
)

// TestAbortedInsertKeepsReplayGuard: an insert that takes a recycled slot and
// aborts must leave the slot's durable timestamp no older than it found it.
// Log replay skips a record older than the timestamp of the slot it names;
// handed back with timestamp 0, slot S here let worker 0's window replay
// "insert key 1 into S" and then "delete key 1", and the delete took key 1's
// index entry — which by then named the row worker 1 had re-inserted, and whose
// own insert record replay skips because the row was updated since. Found by
// TestQuickKVModelInp/OCC (seed -2582704022080717947) once the model rolled
// transactions back.
func TestAbortedInsertKeepsReplayGuard(t *testing.T) {
	cfg := InpConfig()
	cfg.Threads = 2
	e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, kvSpec(index.Hash, 1000))
	if err != nil {
		t.Fatal(err)
	}
	kv := e.Table("kv")
	s := kv.Schema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Run(0, func(tx *Txn) error { return tx.Insert(kv, 1, encodeKV(s, 1, 10)) })) // slot S
	must(e.Run(0, func(tx *Txn) error { return tx.Delete(kv, 1) }))                     // S to worker 0's free list
	must(e.Run(1, func(tx *Txn) error { return tx.Insert(kv, 1, encodeKV(s, 1, 19)) })) // key 1 lives elsewhere now
	must(e.Run(1, func(tx *Txn) error { return tx.UpdateField(kv, 1, 1, i64le(20)) }))  // and that insert is no longer replayed
	if err := e.Run(0, func(tx *Txn) error {
		if err := tx.Insert(kv, 2, encodeKV(s, 2, 30)); err != nil { // takes S back
			return err
		}
		return ErrRollback
	}); !errors.Is(err, ErrRollback) {
		t.Fatal(err)
	}
	e2, _, err := Recover(e.System().Crash(), cfg)
	must(err)
	buf := make([]byte, s.TupleSize())
	must(e2.RunRO(0, func(tx *Txn) error { return tx.Read(e2.Table("kv"), 1, buf) }))
	if got := s.GetInt64(buf, 1); got != 20 {
		t.Fatalf("key 1 = %d after recovery, want 20", got)
	}
}
