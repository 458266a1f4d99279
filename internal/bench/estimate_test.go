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
// presets x {YCSB, TPC-C} x threads {1, 4, 16}): the device size decides the
// address of everything allocated on it, so a moved estimate moves virtual
// results.
func TestEstimateDeviceBytesPinned(t *testing.T) {
	want := map[string]uint64{
		"Falcon (DRAM Index)/YCSB/1":   213176080,
		"Falcon (DRAM Index)/YCSB/4":   213959680,
		"Falcon (DRAM Index)/YCSB/16":  217104320,
		"Falcon (DRAM Index)/TPC-C/1":  103015200,
		"Falcon (DRAM Index)/TPC-C/4":  103805440,
		"Falcon (DRAM Index)/TPC-C/16": 106966720,
		"Falcon/YCSB/1":                213176080,
		"Falcon/YCSB/4":                213959680,
		"Falcon/YCSB/16":               217104320,
		"Falcon/TPC-C/1":               103015200,
		"Falcon/TPC-C/4":               103805440,
		"Falcon/TPC-C/16":              106966720,
		"Falcon (All Flush)/YCSB/1":    213176080,
		"Falcon (All Flush)/YCSB/4":    213959680,
		"Falcon (All Flush)/YCSB/16":   217104320,
		"Falcon (All Flush)/TPC-C/1":   103015200,
		"Falcon (All Flush)/TPC-C/4":   103805440,
		"Falcon (All Flush)/TPC-C/16":  106966720,
		"Falcon (No Flush)/YCSB/1":     213176080,
		"Falcon (No Flush)/YCSB/4":     213959680,
		"Falcon (No Flush)/YCSB/16":    217104320,
		"Falcon (No Flush)/TPC-C/1":    103015200,
		"Falcon (No Flush)/TPC-C/4":    103805440,
		"Falcon (No Flush)/TPC-C/16":   106966720,
		"Inp/YCSB/1":                   218485520,
		"Inp/YCSB/4":                   235197440,
		"Inp/YCSB/16":                  302055360,
		"Inp/TPC-C/1":                  108324640,
		"Inp/TPC-C/4":                  125043200,
		"Inp/TPC-C/16":                 191917760,
		"Outp/YCSB/1":                  763937040,
		"Outp/YCSB/4":                  764720640,
		"Outp/YCSB/16":                 767855040,
		"Outp/TPC-C/1":                 295057680,
		"Outp/TPC-C/4":                 296137600,
		"Outp/TPC-C/16":                300471360,
		"ZenS (No Flush)/YCSB/1":       763937040,
		"ZenS (No Flush)/YCSB/4":       764720640,
		"ZenS (No Flush)/YCSB/16":      767855040,
		"ZenS (No Flush)/TPC-C/1":      295057680,
		"ZenS (No Flush)/TPC-C/4":      296137600,
		"ZenS (No Flush)/TPC-C/16":     300471360,
		"ZenS/YCSB/1":                  763937040,
		"ZenS/YCSB/4":                  764720640,
		"ZenS/YCSB/16":                 767855040,
		"ZenS/TPC-C/1":                 295057680,
		"ZenS/TPC-C/4":                 296137600,
		"ZenS/TPC-C/16":                300471360,
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
	if got := EstimateDeviceBytes(cfg, workloads[0].specs); got != 240440320 {
		t.Errorf("Inp with an 80 KiB overflow area: %d bytes, pinned 240440320", got)
	}
}
