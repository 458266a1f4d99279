package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"falcon/internal/obs"
)

// TestSweepCellObsGolden holds two cells of `falcon sweep -threads 2 -txns 40
// -warmup 10 -records 2000 -parworkers` to testdata byte for byte: what -prom
// writes for the cell, and its snapshot as -json writes it. Falcon's TPC-C cell runs with
// -contend, Falcon+GC's YCSB-A Zipfian cell with -groupcommit, so between them
// they carry tables, the observatory, epochs and their histograms. Both run
// through the group scheduler, so nothing in them depends on the host. -update
// rewrites them, for a change that means to move them and says why.
func TestSweepCellObsGolden(t *testing.T) {
	for _, tc := range []struct {
		name, cell string
		flags      CommonFlags
	}{
		{"contend", "Falcon/TPC-C/2", CommonFlags{ParWorkers: true, Contend: true}},
		{"groupcommit", "Falcon+GC/YCSB-A Zipfian/2", CommonFlags{ParWorkers: true, Group: GroupFlag{Enable: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Scale{Threads: []int{2}, Txns: 40, Warmup: 10, Records: 2000, TPCC: DefaultTPCC, Flags: &tc.flags}
			c, err := Fig11(s).Cell(tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			var prom bytes.Buffer
			if err := obs.WritePrometheusCells(&prom, []obs.NamedSnapshot{{Label: c.Label, Snap: res.Obs}}); err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(res.Obs, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			for path, got := range map[string][]byte{
				"testdata/sweep_cell_" + tc.name + ".prom": prom.Bytes(),
				"testdata/sweep_cell_" + tc.name + ".json": append(js, '\n'),
			} {
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s moved (-update rewrites it; git diff shows what)", path)
				}
			}
		})
	}
}

// TestRecoveryStudyGolden renders the recovery study at records {2000, 5000}
// with one worker and holds it to testdata/recovery_study.golden, first
// printed by the pre-catalogue recovery command on the commit that made
// out-of-place recovery deterministic (before that the ZenS rows moved from
// run to run). -update rewrites it, for a change that means to move virtual
// time and says why.
func TestRecoveryStudyGolden(t *testing.T) {
	cf := &CommonFlags{Stats: true}
	fig, reports, _ := Recovery(Scale{Threads: []int{1}, Txns: 20, RecoveryRecords: []uint64{2000, 5000}, Flags: cf})
	var out, errs bytes.Buffer
	if err := Render(&out, &errs, fig, 1, cf); err != nil {
		t.Fatalf("render: %v\n%s", err, errs.String())
	}
	if *updateGolden {
		if err := os.WriteFile("testdata/recovery_study.golden", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/recovery_study.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("recovery study moved.\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("cell %d left no recovery report", i)
		}
	}
}

// TestRecoveryBreakdownSumsToTotal: the study's breakdown is the recovered
// engine's four rec-* phases, and they partition the recovery clock, so in
// every cell they sum to the report's TotalNanos exactly (epilogue included).
func TestRecoveryBreakdownSumsToTotal(t *testing.T) {
	s := Scale{Threads: []int{1}, Txns: 20, RecoveryRecords: []uint64{2000, 5000}}
	fig, reports, recovered := Recovery(s)
	results := RunCells(fig.Cells(), 0)
	for i, cr := range results {
		if cr.Err != nil {
			t.Fatalf("%s: %v", cr.Label, cr.Err)
		}
		ph := recovered[i].PhaseNanos
		sum := ph[obs.PhaseRecCatalog] + ph[obs.PhaseRecIndex] + ph[obs.PhaseRecReplay] + ph[obs.PhaseRecHeapScan]
		if sum != reports[i].TotalNanos || sum == 0 {
			t.Errorf("%s: rec-* phases sum to %d ns, recovery took %d ns", cr.Label, sum, reports[i].TotalNanos)
		}
	}
}
