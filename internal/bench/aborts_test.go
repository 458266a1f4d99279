package bench

import (
	"testing"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/workload/ycsb"
)

// runContended runs a fixed, deterministic high-contention YCSB-A cell —
// Zipfian(0.99) keys over a tiny keyspace, four group-scheduled workers — and
// returns the measured phase's observability snapshot.
func runContended(t *testing.T, group bool) obs.Snapshot {
	t.Helper()
	ecfg := core.FalconConfig()
	ecfg.GroupCommit = group
	ecfg.Threads = 4
	e, d, err := NewYCSB(ecfg, ycsb.Config{
		Records: 200, Fields: 4, FieldBytes: 32,
		Workload: ycsb.A, Distribution: ycsb.Zipfian,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: 300, WarmupPerWorker: 20, ParWorkers: true},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	return res.Obs
}

// TestGroupCommitAbortTaxonomy pins the no-wait cost model of group commit:
// splitting commit into a publish point and a deferred durable point must not
// widen the conflict window. Locks release at publish, exactly where the
// per-commit path releases them after its drain, so under identical seeded
// high contention the conflict-abort counts (lock conflicts plus OCC
// validation failures) with group commit must stay within a factor of two of
// the per-commit baseline — and no abort may shift into an unrelated class.
// The cells run deterministically, so a regression here is a real change in
// the conflict window, not scheduling noise.
func TestGroupCommitAbortTaxonomy(t *testing.T) {
	base := runContended(t, false)
	gc := runContended(t, true)

	conflicts := func(s obs.Snapshot) uint64 {
		return s.AbortCounts[obs.AbortLockConflict] + s.AbortCounts[obs.AbortValidation]
	}
	b, g := conflicts(base), conflicts(gc)
	t.Logf("conflict aborts: per-commit %d (lock %d, validation %d) vs group commit %d (lock %d, validation %d)",
		b, base.AbortCounts[obs.AbortLockConflict], base.AbortCounts[obs.AbortValidation],
		g, gc.AbortCounts[obs.AbortLockConflict], gc.AbortCounts[obs.AbortValidation])

	if b == 0 {
		t.Fatal("baseline cell produced no conflict aborts; the contention knobs no longer bite and the comparison is vacuous")
	}
	const factor = 2.0
	if float64(g) > factor*float64(b) {
		t.Errorf("group commit conflict aborts (%d) exceed %.0fx the per-commit baseline (%d): the publish split widened the conflict window", g, factor, b)
	}
	if float64(b) > factor*float64(g) {
		t.Errorf("per-commit conflict aborts (%d) exceed %.0fx the group-commit count (%d): the cells no longer see comparable contention", b, factor, g)
	}

	// Group commit must not manufacture aborts in unrelated classes: resource
	// and fallback classes stay untouched by the WAL-path change.
	for _, r := range []obs.AbortReason{obs.AbortTableFull, obs.AbortLogFull, obs.AbortOther} {
		if gc.AbortCounts[r] != base.AbortCounts[r] {
			t.Errorf("%s aborts changed under group commit: %d vs baseline %d", r, gc.AbortCounts[r], base.AbortCounts[r])
		}
	}
}
