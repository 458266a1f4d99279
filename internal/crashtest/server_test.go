package crashtest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"falcon/internal/pmem"
)

// strictCells returns the matrix cells whose configuration promises strict
// durable linearizability — the precondition for the exactly-once oracle.
func strictCells() []Cell {
	var out []Cell
	for _, c := range Matrix() {
		if c.Strict() {
			out = append(out, c)
		}
	}
	return out
}

const serverCountsPath = "testdata/server_cells.json"

// serverCounts is what testdata/server_cells.json pins per strict cell and
// lane: how many seeds crashed mid-request, and how many of those retries
// replayed or re-executed. The stream is seeded and sequential, so every
// figure is exact.
type serverCounts struct{ Crashes, Replays, Reexecs int }

// TestServerExactlyOnceAcrossCrashes is the serving-layer acceptance gate:
// crash mid-request, recover, retry under the original idempotency key — the
// retry must observe the original attempt's outcome (replay with identical
// digest if it committed, fresh exactly-once execution if not), and the final
// state of every touched row must match the golden model exactly. Runs 400
// crash seeds per strict matrix cell.
//
// Beside the verdicts it pins each cell's counts in
// testdata/server_cells.json, as TestCrashMatrix does. Regenerate a lane with
//
//	go test ./internal/crashtest -run TestServerExactlyOnceAcrossCrashes -update [-short]
func TestServerExactlyOnceAcrossCrashes(t *testing.T) {
	cells := strictCells()
	if len(cells) == 0 {
		t.Fatal("no strict cells in the matrix")
	}
	// 400 seeds per cell in full mode: at 13 (200 spread over the cells) the
	// sweep passed over the two recovery bugs TestServerExactlyOnceRepros
	// pins; a light sweep under -short.
	perCell := 400
	if testing.Short() {
		perCell = 2
	}
	table := readPinned[serverCounts](t, serverCountsPath)
	lane := laneName(perCell)
	want := table[lane]
	var mu sync.Mutex
	got := map[string]serverCounts{}
	var totalCrashes, totalReplays, totalReexecs atomic.Int64
	for _, cell := range cells {
		cell := cell
		t.Run(cell.String(), func(t *testing.T) {
			t.Parallel()
			res := RunServerCell(cell, Options{Seeds: perCell})
			c := serverCounts{res.Crashes, res.Replays, res.Reexecs}
			mu.Lock()
			got[cell.String()] = c
			mu.Unlock()
			if w, ok := want[cell.String()]; !*updateCounts && (!ok || w != c) {
				t.Errorf("counts moved: pinned %+v (present %v), got %+v", w, ok, c)
			}
			if res.Crashes == 0 {
				t.Errorf("no injected crash fired mid-request across %d seeds", perCell)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", v.Seed, v.Detail)
			}
			totalCrashes.Add(int64(res.Crashes))
			totalReplays.Add(int64(res.Replays))
			totalReexecs.Add(int64(res.Reexecs))
		})
	}
	t.Cleanup(func() {
		if *updateCounts {
			writeLane(t, serverCountsPath, table, lane, got)
		}
		// Both post-crash retry paths must be exercised somewhere in the
		// matrix: replays prove idempotency records survive with their
		// effects; re-executions prove uncommitted attempts leave neither.
		if totalReplays.Load() == 0 {
			t.Errorf("no seed replayed a committed request after its crash (%d crashes)", totalCrashes.Load())
		}
		if totalReexecs.Load() == 0 {
			t.Errorf("no seed re-executed an uncommitted request after its crash (%d crashes)", totalCrashes.Load())
		}
	})
}

// TestServerExactlyOnceRepros replays, one seed each, the crashes that broke
// exactly-once before the fixes they name; every one of them failed then.
//
//   - "delete replay": an in-place delete retires its slot, then deletes the
//     index entries. Replay took a slot stamped with the record's TID and the
//     deleted flag for a delete that had fully applied, so a crash between the
//     two left the entry: the deleted row read back ("kv/47 resurfaced").
//   - "torn delete record": an out-of-place delete stored the deleter's TID,
//     then the deleted flag. A crash between them left a live version with an
//     uncommitted TID, which recovery rolled back: a committed row was lost,
//     and the retried request saw a different state than the model.
func TestServerExactlyOnceRepros(t *testing.T) {
	for _, r := range []struct {
		cell string
		seed uint64
		bug  string
	}{
		{"Falcon (All Flush)+GC", 38, "delete replay"},
		{"Falcon (All Flush)+GC", 141, "delete replay"},
		{"Outp", 110, "torn delete record"},
		{"ZenS", 117, "torn delete record"},
		{"ZenS", 273, "torn delete record"},
		{"ZenS", 305, "torn delete record"},
		{"ZenS (No Flush)", 117, "torn delete record"},
		{"ZenS (No Flush)", 136, "torn delete record"},
		{"ZenS (No Flush)", 273, "torn delete record"},
		{"ZenS (No Flush)", 305, "torn delete record"},
		{"ZenS (No Flush)", 347, "torn delete record"},
	} {
		cell := matrixCell(t, r.cell, pmem.EADR)
		t.Run(fmt.Sprintf("%s/seed%d", cell, r.seed), func(t *testing.T) {
			t.Parallel()
			res := RunServerCell(cell, Options{FirstSeed: r.seed, Seeds: 1})
			if res.Crashes != 1 {
				t.Errorf("the crash did not fire mid-request")
			}
			for _, v := range res.Violations {
				t.Errorf("%s: %s", r.bug, v.Detail)
			}
		})
	}
}

// TestServerCellRejectsRelaxedConfigs: the exactly-once oracle refuses cells
// that cannot support it, instead of reporting vacuous passes.
func TestServerCellRejectsRelaxedConfigs(t *testing.T) {
	for _, cell := range Matrix() {
		if cell.Strict() {
			continue
		}
		res := RunServerCell(cell, Options{Seeds: 1})
		if res.Passed() {
			t.Errorf("%s: relaxed cell accepted by the exactly-once harness", cell)
		}
		return // one representative is enough
	}
}
