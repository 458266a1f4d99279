package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one grid cell of a parameter sweep: an independent measurement
// with its own isolated engine. Run must build the engine itself (no state
// shared with other cells) so cells can execute concurrently; the virtual
// clocks inside a cell, and the group-mode token its workers run under, make
// its measured result independent of host scheduling.
type Cell struct {
	// Label identifies the cell for reporting ("Falcon/TPC-C/8").
	Label string
	// Run builds the cell's engine, executes the workload, and returns the
	// measurement.
	Run func() (*Result, error)
	// Workload, Engine, Threads and Extra (e.g. the tuple size in the Figure
	// 12 sweep) are the cell's grid coordinates in the -json and -md exports.
	Workload, Engine string
	Threads          int
	Extra            string
}

// CellResult is the outcome of one Cell, delivered in original cell order.
type CellResult struct {
	Label string
	Res   *Result
	Err   error
}

// RunCells executes the cells with up to par concurrent runners and returns
// their results in the original cell order regardless of completion order.
// par <= 0 uses GOMAXPROCS. Each runner claims the next unstarted cell from
// a shared counter, so long cells don't strand idle runners the way a
// static partition would.
//
// Throughput and latency are measured in virtual time inside each cell, so
// running cells concurrently changes only host wall-clock, not results. A
// figure cell runs its workers under the group-mode token, one at a time on
// one core, so GOMAXPROCS runners keep every core busy and each cell gives
// the same bytes under any par. A cell whose workers run free (a Run of its
// own with Options.ParWorkers unset) follows the host's interleaving of
// those workers, with or without cell parallelism.
func RunCells(cells []Cell, par int) []CellResult {
	out := make([]CellResult, len(cells))
	runCells(cells, par, func(i int, cr CellResult) { out[i] = cr })
	return out
}

// runCells is RunCells handing each outcome to done as its cell finishes
// (from the runner's goroutine; distinct i never race).
func runCells(cells []Cell, par int, done func(i int, cr CellResult)) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(cells) {
		par = len(cells)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < par; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				res, err := cells[i].Run()
				done(i, CellResult{Label: cells[i].Label, Res: res, Err: err})
			}
		}()
	}
	wg.Wait()
}
