package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/core"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/virtual_golden.json from this binary")

const goldenPath = "testdata/virtual_golden.json"

// goldenCell is one pinned configuration: a preset (optionally through group
// commit) under one CC algorithm, one workload, one execution mode.
type goldenCell struct {
	label string
	ecfg  core.Config
	tpcc  bool
	par   bool // four workers through the deterministic group scheduler; else one free-running worker
}

// goldenCells enumerates 8 presets × 6 CC × {YCSB-A Zipfian, TPC-C} × {one
// free-running worker, four group-scheduled workers}, each in-place preset a
// second time with group commit on. Both execution modes are deterministic
// (one goroutine; or one worker at a time under the group token), so the
// whole Result pins.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, preset := range EngineConfigs() {
		variants := []core.Config{preset}
		if preset.Update == core.InPlace {
			gc := preset
			gc.GroupCommit = true
			gc.Name += "+GC"
			variants = append(variants, gc)
		}
		for _, ecfg := range variants {
			for _, algo := range cc.All {
				for _, isTPCC := range []bool{false, true} {
					for _, par := range []bool{false, true} {
						c := goldenCell{ecfg: ecfg, tpcc: isTPCC, par: par}
						c.ecfg.CC = algo
						c.ecfg.Threads = 1
						c.ecfg.DRAMBytes = 32 << 20 // default 512 MiB: host time only, the cells' DRAM indexes are small
						wl, mode := "YCSB-A-zipf", "1w"
						if isTPCC {
							wl = "TPC-C"
						}
						if par {
							c.ecfg.Threads = 4
							mode = "4w-par"
						}
						c.label = fmt.Sprintf("%s/%s/%s/%s", ecfg.Name, algo, wl, mode)
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// run executes the cell and returns what is pinned for it: the sha256 of the
// serialized Result, or the error string of a cell that does not complete.
func (c goldenCell) run() string {
	opts := Options{Workers: 1, TxnsPerWorker: 120, WarmupPerWorker: 20}
	if c.par {
		opts = Options{Workers: 4, TxnsPerWorker: 40, WarmupPerWorker: 10, ParWorkers: true}
	}
	var res *Result
	var err error
	if c.tpcc {
		var e *core.Engine
		var d *tpcc.Driver
		e, d, err = NewTPCC(c.ecfg, tpcc.Config{Warehouses: 2, Items: 200, CustomersPerDistrict: 30})
		if err == nil {
			opts.Classes = 5
			res, err = Run(e, "TPC-C", opts, func(w int) (int, error) {
				ty, err := d.NextTyped(w)
				return int(ty), err
			})
		}
	} else {
		var e *core.Engine
		var d *ycsb.Driver
		e, d, err = NewYCSB(c.ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32,
			Workload: ycsb.A, Distribution: ycsb.Zipfian})
		if err == nil {
			res, err = Run(e, "YCSB-A", opts, func(w int) (int, error) { return 0, d.Next(w) })
		}
	}
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "error: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestVirtualGolden pins the virtual clock across commits: every simulated
// event, phase share and counter of each cell's Result, as one digest checked
// in under testdata/. A host-side change must leave every digest alone; a
// change that means to move virtual bytes regenerates the file with
//
//	go test ./internal/bench -run TestVirtualGolden -update
//
// and explains the move. -short runs every thirteenth cell.
func TestVirtualGolden(t *testing.T) {
	cells := goldenCells()
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		if len(want) != len(cells) {
			t.Fatalf("%s pins %d cells, the grid has %d; regenerate with -update", goldenPath, len(want), len(cells))
		}
	}
	var mu sync.Mutex
	got := make(map[string]string, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			if testing.Short() && !*updateGolden && i%13 != 0 {
				continue
			}
			c := c
			t.Run(c.label, func(t *testing.T) {
				t.Parallel()
				v := c.run()
				mu.Lock()
				got[c.label] = v
				mu.Unlock()
				if *updateGolden {
					return
				}
				if w, ok := want[c.label]; !ok {
					t.Errorf("no pinned value; regenerate with -update")
				} else if v != w {
					t.Errorf("virtual result moved:\n  pinned %s\n  got    %s", w, v)
				}
			})
		}
	})
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), goldenPath)
	}
}
