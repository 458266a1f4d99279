package main

import (
	"strings"
	"testing"
)

// TestCheckGatesAgainstBestComparable: the gate must bite relative to the
// fastest entry that timed the same machine, not the file's first entry
// (the slow pre-optimisation baseline).
func TestCheckGatesAgainstBestComparable(t *testing.T) {
	runs := []Run{
		{Label: "baseline", GoMaxProcs: 1, GridS: 48.2},
		{Label: "opt", GoMaxProcs: 1, GridS: 30.9},
		{Label: "quick", GoMaxProcs: 1, Quick: true},
		{Label: "two-procs", GoMaxProcs: 2, GridS: 32.0},
		{Label: "gc", GoMaxProcs: 1, GroupCommit: true, GridS: 20.0},
		{Label: "par", GoMaxProcs: 1, WorkerPar: true, GridS: 25.0},
	}
	for _, tc := range []struct {
		run  Run
		best string // label the verdict must be relative to; "" = nothing comparable
		fail bool
	}{
		{Run{GoMaxProcs: 1, GridS: 30.9 * 1.15}, "opt", true}, // 35.5 s: passes against 48.2, must fail
		{Run{GoMaxProcs: 1, GridS: 30.9 * 1.05}, "opt", false},
		{Run{GoMaxProcs: 1, GridS: 25.0}, "opt", false},
		{Run{GoMaxProcs: 2, GridS: 32.0 * 1.15}, "two-procs", true},
		{Run{GoMaxProcs: 2, GridS: 33.0}, "two-procs", false},
		{Run{GoMaxProcs: 1, GroupCommit: true, GridS: 23.0}, "gc", true},
		{Run{GoMaxProcs: 1, WorkerPar: true, GridS: 26.0}, "par", false},
		{Run{GoMaxProcs: 4, GridS: 500}, "", false},
	} {
		best, err := checkGrid(runs, tc.run)
		gotBest := ""
		if best != nil {
			gotBest = best.Label
		}
		if gotBest != tc.best {
			t.Errorf("%+v: measured against %q, want %q", tc.run, gotBest, tc.best)
		}
		if (err != nil) != tc.fail {
			t.Errorf("%+v: checkGrid = %v, want failure %v", tc.run, err, tc.fail)
		}
		if err != nil && !strings.Contains(err.Error(), tc.best) {
			t.Errorf("%+v: verdict %q does not name entry %q", tc.run, err, tc.best)
		}
	}
}
