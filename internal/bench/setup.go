package bench

import (
	"falcon/internal/core"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/wal"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// EngineConfigs lists the eight engines of the paper's Figures 7–9, in the
// legend's order.
func EngineConfigs() []core.Config {
	return []core.Config{
		core.FalconDRAMIndexConfig(),
		core.FalconConfig(),
		core.FalconAllFlushConfig(),
		core.FalconNoFlushConfig(),
		core.InpConfig(),
		core.OutpConfig(),
		core.ZenSNoFlushConfig(),
		core.ZenSConfig(),
	}
}

// AblationConfigs lists the five engines of Figures 10–11 (the individual
// optimization study).
func AblationConfigs() []core.Config {
	return []core.Config{
		core.InpConfig(),
		core.InpSmallLogWindowConfig(),
		core.InpNoFlushConfig(),
		core.InpHotTupleTrackingConfig(),
		core.FalconConfig(),
	}
}

// EstimateDeviceBytes sizes the simulated NVM device for an engine+tables
// combination, with headroom for windows, indexes and allocator slack.
func EstimateDeviceBytes(cfg core.Config, specs []core.TableSpec) uint64 {
	threads := cfg.Workers()
	var total uint64 = 16 << 20 // catalog, markers, slack
	// Per-thread log windows: Inp's large flushed-log regions with their
	// overflow areas are substantial at high thread counts.
	total += wal.BytesNeeded(cfg.LogWindow()) * uint64(threads)
	for _, spec := range specs {
		total += heap.BytesNeeded(heap.Config{
			SlotSize: spec.Schema.TupleSize(), NSlots: cfg.HeapSlots(spec.Capacity), NThreads: threads,
		})
		// Room for a primary of either kind and a secondary B-tree.
		total += index.HashBytes(cfg.IndexKeys(index.Hash, spec.Capacity)) +
			2*index.BTreeBytes(cfg.IndexKeys(index.BTree, spec.Capacity))
	}
	return total + total/4
}

// CacheBytesFor scales the simulated CPU cache with the worker count,
// approximating the paper's testbed where each of 48 cores contributes
// 1.25 MiB of L2 on top of a 39 MiB shared L3.
func CacheBytesFor(threads int) int {
	if threads <= 0 {
		threads = 4
	}
	return 2<<20 + threads*(256<<10)
}

// NewEngine builds an engine for the tables on a simulated device sized for
// them, with the cache scaled to the engine's thread count.
func NewEngine(ecfg core.Config, specs []core.TableSpec) (*core.Engine, error) {
	sys := pmem.NewSystem(pmem.Config{
		DeviceBytes: EstimateDeviceBytes(ecfg, specs),
		CacheBytes:  CacheBytesFor(ecfg.Threads),
	})
	return core.New(sys, ecfg, specs)
}

// NewTPCC builds a loaded TPC-C engine+driver for the given engine config.
func NewTPCC(ecfg core.Config, wcfg tpcc.Config) (*core.Engine, *tpcc.Driver, error) {
	e, err := NewEngine(ecfg, tpcc.TableSpecs(wcfg))
	if err != nil {
		return nil, nil, err
	}
	if err := tpcc.Load(e, wcfg); err != nil {
		return nil, nil, err
	}
	d, err := tpcc.NewDriver(e, wcfg)
	return e, d, err
}

// NewYCSB builds a loaded YCSB engine+driver for the given engine config.
func NewYCSB(ecfg core.Config, wcfg ycsb.Config) (*core.Engine, *ycsb.Driver, error) {
	e, err := NewEngine(ecfg, ycsb.TableSpecs(wcfg))
	if err != nil {
		return nil, nil, err
	}
	if err := ycsb.Load(e, wcfg); err != nil {
		return nil, nil, err
	}
	d, err := ycsb.NewDriver(e, wcfg)
	return e, d, err
}
