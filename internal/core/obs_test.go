package core

import (
	"errors"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/pmem"
)

// reasonTotals sums the abort-reason counters and asserts they account for
// every abort exactly once.
func assertReasonsSumToAborts(t *testing.T, e *Engine) [obs.NumAbortReasons]uint64 {
	t.Helper()
	reasons := e.ObsSnapshot().AbortCounts
	var sum uint64
	for _, n := range reasons {
		sum += n
	}
	if sum != e.Aborts() {
		t.Fatalf("abort reasons sum to %d, want Aborts() = %d (%v)", sum, e.Aborts(), reasons)
	}
	return reasons
}

func TestAbortReasonLockConflict2PL(t *testing.T) {
	cfg := FalconConfig()
	cfg.CC = cc.TwoPL
	e := newKVEngine(t, cfg)
	tbl := e.Table("kv")
	s := tbl.Schema()
	if err := e.Run(0, func(tx *Txn) error {
		return tx.Insert(tbl, 1, encodeKV(s, 1, 10))
	}); err != nil {
		t.Fatal(err)
	}

	// Worker 0 holds the write lock; worker 1's update must fail no-wait.
	var v [8]byte
	tx0 := e.Begin(0)
	if err := tx0.UpdateField(tbl, 1, 1, v[:]); err != nil {
		t.Fatal(err)
	}
	tx1 := e.Begin(1)
	err := tx1.UpdateField(tbl, 1, 1, v[:])
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent update err = %v, want ErrConflict", err)
	}
	tx1.classifyAbort(err)
	tx1.Abort()
	if err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}

	reasons := assertReasonsSumToAborts(t, e)
	if e.Aborts() != 1 || reasons[obs.AbortLockConflict] != 1 {
		t.Fatalf("aborts = %d, lock-conflict = %d, want 1/1 (%v)",
			e.Aborts(), reasons[obs.AbortLockConflict], reasons)
	}
}

func TestAbortReasonValidationOCC(t *testing.T) {
	cfg := FalconConfig()
	cfg.CC = cc.OCC
	e := newKVEngine(t, cfg)
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(1); k <= 2; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, 0))
		}); err != nil {
			t.Fatal(err)
		}
	}

	// tx reads key 1 and writes key 2; a concurrent commit on key 1 between
	// read and validation must fail validation, not look like a lock conflict.
	tx := e.Begin(0)
	buf := make([]byte, s.TupleSize())
	if err := tx.Read(tbl, 1, buf); err != nil {
		t.Fatal(err)
	}
	var v [8]byte
	if err := tx.UpdateField(tbl, 2, 1, v[:]); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1, func(other *Txn) error {
		return other.UpdateField(tbl, 1, 1, v[:])
	}); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	tx.classifyAbort(err)
	tx.Abort()

	reasons := assertReasonsSumToAborts(t, e)
	if e.Aborts() != 1 || reasons[obs.AbortValidation] != 1 {
		t.Fatalf("aborts = %d, validation = %d, want 1/1 (%v)",
			e.Aborts(), reasons[obs.AbortValidation], reasons)
	}
}

func TestAbortReasonUserRollback(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	err := e.Run(0, func(tx *Txn) error {
		if err := tx.Insert(tbl, 1, encodeKV(s, 1, 1)); err != nil {
			return err
		}
		return ErrRollback
	})
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", err)
	}
	reasons := assertReasonsSumToAborts(t, e)
	if e.Aborts() != 1 || reasons[obs.AbortUserRollback] != 1 {
		t.Fatalf("aborts = %d, user-rollback = %d, want 1/1 (%v)",
			e.Aborts(), reasons[obs.AbortUserRollback], reasons)
	}

	// A bare Abort with no error defaults to user rollback too.
	tx := e.Begin(0)
	tx.Abort()
	reasons = assertReasonsSumToAborts(t, e)
	if reasons[obs.AbortUserRollback] != 2 {
		t.Fatalf("bare Abort classified as %v, want user-rollback", reasons)
	}
}

func TestAbortReasonTableFull(t *testing.T) {
	cfg := FalconConfig()
	cfg.Threads = 2
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	e, err := New(sys, cfg, kvSpec(index.Hash, 32))
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("kv")
	s := tbl.Schema()
	var fullErr error
	for k := uint64(0); k < 100; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, 0))
		}); err != nil {
			fullErr = err
			break
		}
	}
	if !errors.Is(fullErr, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", fullErr)
	}
	reasons := assertReasonsSumToAborts(t, e)
	if e.Aborts() != 1 || reasons[obs.AbortTableFull] != 1 {
		t.Fatalf("aborts = %d, table-full = %d, want 1/1 (%v)",
			e.Aborts(), reasons[obs.AbortTableFull], reasons)
	}
}

func TestAbortReasonsSumUnderContention(t *testing.T) {
	// A contended workload (retried conflicts plus a rollback) must keep the
	// invariant: every abort has exactly one reason.
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := FalconConfig()
			cfg.CC = algo
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, 1, encodeKV(s, 1, 0))
			}); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 100; i++ {
					_ = e.Run(1, func(tx *Txn) error {
						buf := make([]byte, s.TupleSize())
						if err := tx.Read(tbl, 1, buf); err != nil {
							return err
						}
						var v [8]byte
						layoutPutI64(v[:], s.GetInt64(buf, 1)+1)
						return tx.UpdateField(tbl, 1, 1, v[:])
					})
				}
			}()
			for i := 0; i < 100; i++ {
				var v [8]byte
				_ = e.Run(2, func(tx *Txn) error {
					if err := tx.UpdateField(tbl, 1, 1, v[:]); err != nil {
						return err
					}
					if i%10 == 0 {
						return ErrRollback
					}
					return nil
				})
			}
			<-done
			assertReasonsSumToAborts(t, e)
			if n := e.ObsSnapshot().AbortCounts[obs.AbortUserRollback]; n != 10 {
				t.Fatalf("user rollbacks = %d, want 10", n)
			}
		})
	}
}

func TestPhaseNanosPartitionClock(t *testing.T) {
	// The seven phases partition all transactional virtual time, so their sum
	// must track the worker clock to within the per-transaction begin overhead
	// (charged before the timer starts) — comfortably inside the 10% the
	// observability contract promises.
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 200; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	var v [8]byte
	for k := uint64(0); k < 200; k++ { // updates exercise the CC phase
		if err := e.Run(0, func(tx *Txn) error {
			return tx.UpdateField(tbl, k, 1, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.ObsSnapshot()
	clock := e.Clock(0).Nanos()
	total := snap.TotalPhaseNanos()
	if total == 0 || total > clock {
		t.Fatalf("phase total %d vs clock %d", total, clock)
	}
	if float64(total) < 0.9*float64(clock) {
		t.Fatalf("phase total %d covers only %.1f%% of clock %d, want >= 90%%",
			total, 100*float64(total)/float64(clock), clock)
	}
	for _, p := range []obs.Phase{obs.PhaseCC, obs.PhaseLogAppend, obs.PhaseHeapWrite, obs.PhaseFlush} {
		if snap.PhaseNanos[p] == 0 {
			t.Errorf("phase %s saw no time on the insert+update path", obs.PhaseNames[p])
		}
	}
}

func TestResetCountersClearsObsButNotPmem(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 50; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, 0))
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = e.Run(0, func(tx *Txn) error { return ErrRollback })

	e.ResetCounters()
	snap := e.ObsSnapshot()
	if snap.Commits != 0 || snap.Aborts != 0 || snap.TotalPhaseNanos() != 0 {
		t.Fatalf("engine counters survived reset: %+v", snap)
	}
	if snap.WAL.Begins != 0 || snap.Hot.Hits+snap.Hot.Misses != 0 {
		t.Fatalf("wal/hot-set counters survived reset: %+v", snap)
	}
	var reasonSum uint64
	for _, n := range snap.AbortCounts {
		reasonSum += n
	}
	if reasonSum != 0 {
		t.Fatalf("abort reasons survived reset: %v", snap.AbortCounts)
	}
	// The pmem hardware counters belong to the shared device and are
	// deliberately not reset (see ResetCounters); warmup exclusion for them
	// goes through Snapshot.Sub instead.
	if snap.Mem.CacheMisses == 0 {
		t.Fatal("pmem counters were unexpectedly reset")
	}
}

func TestWarmupExcludedViaSnapshotDiff(t *testing.T) {
	// The bench warmup protocol: reset engine counters, take a baseline
	// snapshot, measure, diff. Warmup transactions must not appear anywhere
	// in the diffed snapshot.
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 100; k++ { // "warmup"
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, 0))
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.ResetCounters()
	base := e.ObsSnapshot()

	var v [8]byte
	for k := uint64(0); k < 20; k++ { // "measurement"
		if err := e.Run(0, func(tx *Txn) error {
			return tx.UpdateField(tbl, k, 1, v[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	diff := e.ObsSnapshot().Sub(base)
	if diff.Commits != 20 {
		t.Fatalf("diffed commits = %d, want 20 (warmup leaked)", diff.Commits)
	}
	if diff.WAL.Commits != 20 {
		t.Fatalf("diffed WAL commits = %d, want 20", diff.WAL.Commits)
	}
	if diff.TotalPhaseNanos() == 0 {
		t.Fatal("measurement phase time missing from diff")
	}
	if diff.Mem.MediaReads > e.ObsSnapshot().Mem.MediaReads {
		t.Fatal("pmem diff exceeds absolute counters")
	}
}

// TestObsSnapshotCarriesEverySource: ObsSnapshot fills every part of the
// snapshot the engine owns — the probes' counts and phase time, the log
// windows, the epoch board under group commit, the hot sets, the pmem device,
// the per-table rows, and the observatory's report while it is armed — and
// leaves Server to Server.Snapshot. A diff of two takes away the first.
func TestObsSnapshotCarriesEverySource(t *testing.T) {
	cfg := FalconConfig()
	cfg.GroupCommit = true
	e := newKVEngine(t, cfg)
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 50; k++ {
		if err := e.Run(0, func(tx *Txn) error { return tx.Insert(tbl, k, encodeKV(s, k, 0)) }); err != nil {
			t.Fatal(err)
		}
	}
	base := e.ObsSnapshot()
	e.Arm(nil, e.NewObservatory())
	var v [8]byte
	for k := uint64(0); k < 20; k++ {
		if err := e.Run(0, func(tx *Txn) error { return tx.UpdateField(tbl, k%5, 1, v[:]) }); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.ObsSnapshot()
	e.Arm(nil, nil)

	switch {
	case snap.Commits != 70 || snap.TotalPhaseNanos() == 0:
		t.Errorf("probes: %d commits, %d phase ns", snap.Commits, snap.TotalPhaseNanos())
	case snap.WAL.Commits == 0 || snap.WAL.SlotBytes == 0:
		t.Errorf("log windows: %+v", snap.WAL)
	case snap.Epochs.Records == 0:
		t.Errorf("epoch board: %+v", snap.Epochs)
	case snap.Hot.Hits == 0:
		t.Errorf("hot sets: %+v", snap.Hot)
	case snap.Mem.CacheHits == 0:
		t.Errorf("pmem: %+v", snap.Mem)
	case snap.Tables["kv"].Writes != 70:
		t.Errorf("tables: %+v", snap.Tables)
	case snap.Contend == nil || len(snap.Contend.FlushAmp) == 0:
		t.Errorf("armed observatory: %+v", snap.Contend)
	case snap.Server != nil:
		t.Errorf("the engine filled Server: %+v", snap.Server)
	}
	if e.ObsSnapshot().Contend != nil {
		t.Error("a disarmed engine still reports the observatory")
	}
	diff := snap.Sub(base)
	if diff.Commits != 20 || diff.Tables["kv"].Writes != 20 || diff.WAL.SlotBytes != snap.WAL.SlotBytes {
		t.Errorf("diff: %d commits, %d kv writes, slot %d B", diff.Commits, diff.Tables["kv"].Writes, diff.WAL.SlotBytes)
	}
}
