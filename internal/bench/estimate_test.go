package bench

import (
	"fmt"
	"testing"

	"falcon/internal/core"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// TestEstimateDeviceBytesPinned holds EstimateDeviceBytes to the values it
// returned while it still re-derived the log-window defaults itself (8
// presets x {YCSB, TPC-C} x threads {1, 4, 16}), plus the padding of every
// heap and index header to a whole media block (at most 192 B each): the
// device size decides the address of everything allocated on it, so a moved
// estimate moves virtual results.
func TestEstimateDeviceBytesPinned(t *testing.T) {
	want := map[string]uint64{
		"Falcon (DRAM Index)/YCSB/1":   213176960,
		"Falcon (DRAM Index)/YCSB/4":   213960640,
		"Falcon (DRAM Index)/YCSB/16":  217105280,
		"Falcon (DRAM Index)/TPC-C/1":  103023120,
		"Falcon (DRAM Index)/TPC-C/4":  103814080,
		"Falcon (DRAM Index)/TPC-C/16": 106975360,
		"Falcon/YCSB/1":                213176960,
		"Falcon/YCSB/4":                213960640,
		"Falcon/YCSB/16":               217105280,
		"Falcon/TPC-C/1":               103023120,
		"Falcon/TPC-C/4":               103814080,
		"Falcon/TPC-C/16":              106975360,
		"Falcon (All Flush)/YCSB/1":    213176960,
		"Falcon (All Flush)/YCSB/4":    213960640,
		"Falcon (All Flush)/YCSB/16":   217105280,
		"Falcon (All Flush)/TPC-C/1":   103023120,
		"Falcon (All Flush)/TPC-C/4":   103814080,
		"Falcon (All Flush)/TPC-C/16":  106975360,
		"Falcon (No Flush)/YCSB/1":     213176960,
		"Falcon (No Flush)/YCSB/4":     213960640,
		"Falcon (No Flush)/YCSB/16":    217105280,
		"Falcon (No Flush)/TPC-C/1":    103023120,
		"Falcon (No Flush)/TPC-C/4":    103814080,
		"Falcon (No Flush)/TPC-C/16":   106975360,
		"Inp/YCSB/1":                   218486400,
		"Inp/YCSB/4":                   235198400,
		"Inp/YCSB/16":                  302056320,
		"Inp/TPC-C/1":                  108332560,
		"Inp/TPC-C/4":                  125051840,
		"Inp/TPC-C/16":                 191926400,
		"Outp/YCSB/1":                  763937920,
		"Outp/YCSB/4":                  764721600,
		"Outp/YCSB/16":                 767856000,
		"Outp/TPC-C/1":                 295065600,
		"Outp/TPC-C/4":                 296146240,
		"Outp/TPC-C/16":                300480000,
		"ZenS (No Flush)/YCSB/1":       763937920,
		"ZenS (No Flush)/YCSB/4":       764721600,
		"ZenS (No Flush)/YCSB/16":      767856000,
		"ZenS (No Flush)/TPC-C/1":      295065600,
		"ZenS (No Flush)/TPC-C/4":      296146240,
		"ZenS (No Flush)/TPC-C/16":     300480000,
		"ZenS/YCSB/1":                  763937920,
		"ZenS/YCSB/4":                  764721600,
		"ZenS/YCSB/16":                 767856000,
		"ZenS/TPC-C/1":                 295065600,
		"ZenS/TPC-C/4":                 296146240,
		"ZenS/TPC-C/16":                300480000,
	}
	workloads := []struct {
		name  string
		specs []core.TableSpec
	}{
		{"YCSB", ycsb.TableSpecs(ycsb.Config{Records: 100_000})},
		{"TPC-C", tpcc.TableSpecs(tpcc.Config{Warehouses: 2, Items: 2000, CustomersPerDistrict: 120})},
	}
	for _, cfg := range EngineConfigs() {
		for _, wl := range workloads {
			for _, th := range []int{1, 4, 16} {
				cfg.Threads = th
				name := fmt.Sprintf("%s/%s/%d", cfg.Name, wl.name, th)
				if got := EstimateDeviceBytes(cfg, wl.specs); got != want[name] {
					t.Errorf("%s: %d bytes, pinned %d", name, got, want[name])
				}
			}
			cfg.Threads = 0 // defaults to four workers
			if got, four := EstimateDeviceBytes(cfg, wl.specs), want[fmt.Sprintf("%s/%s/4", cfg.Name, wl.name)]; got != four {
				t.Errorf("%s/%s with Threads unset: %d bytes, want the 4-thread %d", cfg.Name, wl.name, got, four)
			}
		}
	}
	// An explicit window (the Figure-12 cells enlarge the overflow area).
	cfg := core.InpConfig()
	cfg.Threads = 4
	cfg.Window.OverflowBytes = 16<<10 + 64<<10
	if got := EstimateDeviceBytes(cfg, workloads[0].specs); got != 240441280 {
		t.Errorf("Inp with an 80 KiB overflow area: %d bytes, pinned 240441280", got)
	}
}
