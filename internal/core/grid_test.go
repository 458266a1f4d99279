package core_test

import (
	"fmt"
	"testing"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/wal"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// TestRegionsOnTheMediaGrid: every array the engine writes back starts on a
// 256 B media block, at any thread count — each table's slot 0, each NVM
// index's bucket 0 or node 0, and every slot and overflow area of every log
// window — so a slot, bucket or node whose size is a multiple of the block
// covers whole blocks (DESIGN.md §3 "The media block grid").
func TestRegionsOnTheMediaGrid(t *testing.T) {
	workloads := []struct {
		name  string
		specs []core.TableSpec
	}{
		{"YCSB", ycsb.TableSpecs(ycsb.Config{Records: 1000})},
		{"TPC-C", tpcc.TableSpecs(tpcc.Config{Warehouses: 1, Items: 200, CustomersPerDistrict: 30})},
	}
	for _, wl := range workloads {
		for _, threads := range []int{1, 2, 3, 4, 16} {
			t.Run(fmt.Sprintf("%s/%d", wl.name, threads), func(t *testing.T) {
				cfg := core.FalconConfig()
				cfg.Threads = threads
				e, err := bench.NewEngine(cfg, wl.specs)
				if err != nil {
					t.Fatal(err)
				}
				onGrid := func(what string, addr uint64) {
					t.Helper()
					if addr%pmem.BlockSize != 0 {
						t.Errorf("%s at %d is %d B past a media block", what, addr, addr%pmem.BlockSize)
					}
				}
				for _, tb := range e.Tables() {
					onGrid(tb.Name()+" slot 0", tb.Heap().PayloadAddr(0)-16) // a slot is its 16 B header, then the payload
					primary, secondary := tb.Indexes()
					for i, idx := range []index.Index{primary, secondary} {
						what := fmt.Sprintf("%s index %d", tb.Name(), i)
						switch idx := idx.(type) {
						case *index.HashIndex:
							onGrid(what+" bucket 0", idx.BucketAddr(0))
						case *index.BTreeIndex:
							onGrid(what+" node 0", idx.NodeAddr(0))
						}
					}
				}
				base, _ := e.LogWindowRange()
				w := e.Config().Window
				for th := 0; th < threads; th++ {
					win := base + uint64(th)*wal.BytesNeeded(w)
					for i := 0; i < w.Slots; i++ {
						onGrid(fmt.Sprintf("thread %d log slot %d", th, i), win+uint64(i*w.SlotBytes))
						onGrid(fmt.Sprintf("thread %d overflow area %d", th, i), win+uint64(w.Slots*w.SlotBytes+i*w.OverflowBytes))
					}
				}
			})
		}
	}
}
