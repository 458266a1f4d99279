package core

import (
	"errors"
	"testing"

	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/obs"
	"falcon/internal/pmem"
)

// TestEngineTracingProducesEvents drives a traced engine through commits and
// a user rollback and checks the dump carries the whole story: txn spans,
// phase segments, WAL window claims, and the abort exemplar with its
// taxonomy reason.
func TestEngineTracingProducesEvents(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(1); k <= 50; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}

	tr := obs.NewTracer(e.Config().Threads, obs.TraceOptions{Sample: 1})
	e.Arm(tr, nil)
	var v [8]byte
	for k := uint64(1); k <= 50; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.UpdateField(tbl, k, 1, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	err := e.Run(0, func(tx *Txn) error {
		if err := tx.UpdateField(tbl, 1, 1, v[:]); err != nil {
			return err
		}
		return ErrRollback
	})
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("rollback txn returned %v", err)
	}
	e.Arm(nil, nil)

	d := tr.Dump()
	var kinds [obs.NumEventKinds]int
	for _, ev := range d.Events {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvTxn] != 51 {
		t.Fatalf("txn events = %d, want 51", kinds[obs.EvTxn])
	}
	if kinds[obs.EvPhase] == 0 {
		t.Fatal("no phase segments traced")
	}
	if kinds[obs.EvWALClaim] == 0 {
		t.Fatal("no WAL window claims traced (Falcon logs every update)")
	}
	if len(d.Aborted) != 1 {
		t.Fatalf("aborted exemplars = %d, want 1", len(d.Aborted))
	}
	ab := d.Aborted[0]
	if ab.Abort != obs.AbortUserRollback.String() {
		t.Fatalf("abort exemplar reason = %q, want %q", ab.Abort, obs.AbortUserRollback)
	}
	if len(ab.Events) == 0 {
		t.Fatal("abort exemplar has no span stack")
	}
	if len(d.Slow) == 0 {
		t.Fatal("no slow exemplars kept")
	}

	// Disarming must stick: more transactions add no events.
	before := len(tr.Dump().Events)
	if err := e.Run(0, func(tx *Txn) error {
		return tx.UpdateField(tbl, 2, 1, v[:])
	}); err != nil {
		t.Fatal(err)
	}
	if after := len(tr.Dump().Events); after != before {
		t.Fatalf("disarmed tracer still recorded %d events", after-before)
	}
}

// TestEngineTableCounters checks the per-table heap/index counters flow from
// transaction paths into the engine snapshot, keyed by table name.
func TestEngineTableCounters(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(1); k <= 20; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, s.TupleSize())
	for k := uint64(1); k <= 20; k++ {
		if err := e.RunRO(1, func(tx *Txn) error {
			return tx.Read(tbl, k, buf)
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap := e.ObsSnapshot()
	ts, ok := snap.Tables["kv"]
	if !ok {
		t.Fatalf("snapshot lacks table kv: %+v", snap.Tables)
	}
	if ts.Writes < 20 {
		t.Fatalf("kv writes = %d, want >= 20", ts.Writes)
	}
	if ts.Reads < 20 {
		t.Fatalf("kv reads = %d, want >= 20", ts.Reads)
	}
	if ts.IndexProbes < 20 {
		t.Fatalf("kv index probes = %d, want >= 20", ts.IndexProbes)
	}

	// ResetCounters must zero the rows like every other engine counter.
	e.ResetCounters()
	if ts := e.ObsSnapshot().Tables["kv"]; ts != (obs.TableStats{}) {
		t.Fatalf("table counters survived ResetCounters: %+v", ts)
	}
}

// TestDataFlushCountsLines: the flush-train span of a commit's data write-back
// carries the cache lines it hinted, not the tuples it wrote back — an update
// of a whole 1 KB tuple (16 B header and 1008 B payload) is the slot's 16
// lines.
func TestDataFlushCountsLines(t *testing.T) {
	cfg := FalconAllFlushConfig()
	cfg.Threads = 1
	s := layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "v", Kind: layout.Bytes, Size: 1000},
	)
	e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg,
		[]TableSpec{{Name: "t", Schema: s, Capacity: 8, IndexKind: index.Hash}})
	if err != nil {
		t.Fatal(err)
	}
	tb := e.Table("t")
	row := make([]byte, s.TupleSize())
	s.PutUint64(row, 0, 1)
	if err := e.Run(0, func(tx *Txn) error { return tx.Insert(tb, 1, row) }); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1, obs.TraceOptions{Sample: 1})
	e.Arm(tr, nil)
	row[8] = 1
	if err := e.Run(0, func(tx *Txn) error { return tx.Update(tb, 1, 0, row) }); err != nil {
		t.Fatal(err)
	}
	e.Arm(nil, nil)
	var trains []obs.Event
	for _, ev := range tr.Dump().Events {
		if ev.Kind == obs.EvFlushTrain {
			trains = append(trains, ev)
		}
	}
	if len(trains) != 1 || trains[0].Arg != 16 || trains[0].Arg2 != 0 {
		t.Fatalf("flush-train spans %+v, want one with Arg 16 (lines) and Arg2 0 (elided)", trains)
	}
}
