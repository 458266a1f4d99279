// Ablation benchmarks for the design parameters the paper discusses but
// does not sweep: the XPBuffer capacity (§5.5 suggests enlarging it
// alleviates uncontrolled-eviction amplification), the small log window's
// slot count (§4.3 picks 2–3 transactions), and the hot-tuple LRU capacity
// (§4.4 says only "a small LRU cache"). Shapes, not absolutes.
package falcon_test

import (
	"fmt"
	"testing"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/pmem"
	"falcon/internal/workload/ycsb"
)

func runYCSBWith(b *testing.B, ecfg core.Config, wcfg ycsb.Config, mem pmem.Config) *bench.Result {
	b.Helper()
	sys := pmem.NewSystem(mem)
	e, err := core.New(sys, ecfg, ycsb.TableSpecs(wcfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := ycsb.Load(e, wcfg); err != nil {
		b.Fatal(err)
	}
	d, err := ycsb.NewDriver(e, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := bench.Run(e, wcfg.Workload.String(),
		bench.Options{Workers: ecfg.Threads, TxnsPerWorker: 600, WarmupPerWorker: 150},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationXPBufferSize: a larger write-combining buffer merges more
// of the unflushed engine's scattered evictions, narrowing the gap to the
// hinted-flush engine — the paper's §5.5 prediction.
func BenchmarkAblationXPBufferSize(b *testing.B) {
	wcfg := ycsb.Config{Records: 30_000, Workload: ycsb.A, Distribution: ycsb.Uniform}
	for _, kb := range []int{16, 64, 256, 1024} {
		for _, ecfg := range []core.Config{core.FalconConfig(), core.FalconNoFlushConfig()} {
			kb, ecfg := kb, ecfg
			b.Run(fmt.Sprintf("xpbuffer=%dKiB/%s", kb, ecfg.Name), func(b *testing.B) {
				runCached(b, func(b *testing.B) map[string]float64 {
					cfg := ecfg
					cfg.Threads = benchThreads
					mem := pmem.Config{
						DeviceBytes:   bench.EstimateDeviceBytes(cfg, ycsb.TableSpecs(wcfg)),
						CacheBytes:    bench.CacheBytesFor(benchThreads),
						XPBufferBytes: kb << 10,
					}
					res := runYCSBWith(b, cfg, wcfg, mem)
					return map[string]float64{
						"MTxn/s(virtual)": res.MTxnPerSec,
						"write-amp":       res.Obs.Mem.WriteAmplification(),
					}
				})
			})
		}
	}
}

// BenchmarkAblationWindowSlots: more window slots delay slot reuse without
// changing durability; the window only needs to cover in-flight
// transactions, which is why the paper picks 2–3.
func BenchmarkAblationWindowSlots(b *testing.B) {
	wcfg := ycsb.Config{Records: 30_000, Workload: ycsb.A, Distribution: ycsb.Uniform}
	for _, slots := range []int{2, 3, 8, 32} {
		slots := slots
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			runCached(b, func(b *testing.B) map[string]float64 {
				cfg := core.FalconConfig()
				cfg.Threads = benchThreads
				cfg.Window.Slots = slots
				mem := pmem.Config{
					DeviceBytes: bench.EstimateDeviceBytes(cfg, ycsb.TableSpecs(wcfg)) + 64<<20,
					CacheBytes:  bench.CacheBytesFor(benchThreads),
				}
				res := runYCSBWith(b, cfg, wcfg, mem)
				return map[string]float64{"MTxn/s(virtual)": res.MTxnPerSec}
			})
		})
	}
}

// BenchmarkAblationHotTupleCap: the hot-tuple set's capacity trades flush
// elision against tracking lukewarm tuples whose dirty lines the cache evicts
// (amplified) anyway, so where it peaks follows the tuples that fit in a
// worker's share of the cache. Falcon on the figures' cache
// (bench.CacheBytesFor) and Figure 11's databases, in group mode at 2 and 16
// workers, over fixed capacities and "derived" (Config.HotTupleCap 0, what an
// engine sizes itself to); the "cap" metric is the capacity in use.
// EXPERIMENTS.md "A hot set sized from the cache share" holds the table the
// derivation was picked from and the run length.
func BenchmarkAblationHotTupleCap(b *testing.B) {
	const txns, warmup = 1800, 450 // three times the default Figure-11 cell
	workloads := []struct {
		name  string
		build func(cfg core.Config) (*core.Engine, bench.TxnFunc, error)
	}{
		{"YCSB-A-zipf", func(cfg core.Config) (*core.Engine, bench.TxnFunc, error) {
			e, d, err := bench.NewYCSB(cfg, ycsb.Config{Records: 50_000, Workload: ycsb.A, Distribution: ycsb.Zipfian})
			return e, func(w int) (int, error) { return 0, d.Next(w) }, err
		}},
		{"TPC-C", func(cfg core.Config) (*core.Engine, bench.TxnFunc, error) {
			wcfg := bench.DefaultTPCC
			wcfg.Warehouses = max(cfg.Threads/2, 2) // as Figure 11 sizes it
			e, d, err := bench.NewTPCC(cfg, wcfg)
			return e, func(w int) (int, error) { ty, err := d.NextTyped(w); return int(ty), err }, err
		}},
	}
	for _, wl := range workloads {
		for _, threads := range []int{2, 16} {
			for _, cap := range []int{0, 32, 64, 128, 256, 512, 1024, 2048} {
				name := fmt.Sprintf("%s/threads=%d/cap=%d", wl.name, threads, cap)
				if cap == 0 {
					name = fmt.Sprintf("%s/threads=%d/cap=derived", wl.name, threads)
				}
				b.Run(name, func(b *testing.B) {
					runCached(b, func(b *testing.B) map[string]float64 {
						cfg := core.FalconConfig()
						cfg.Threads = threads
						cfg.HotTupleCap = cap
						e, next, err := wl.build(cfg)
						if err != nil {
							b.Fatal(err)
						}
						res, err := bench.Run(e, wl.name, bench.Options{Workers: threads,
							TxnsPerWorker: txns, WarmupPerWorker: warmup, ParWorkers: true}, next)
						if err != nil {
							b.Fatal(err)
						}
						hot := res.Obs.Hot
						return map[string]float64{
							"MTxn/s(virtual)": res.MTxnPerSec,
							"media-B/txn":     float64(res.Obs.Mem.MediaWrites+res.Obs.Mem.MediaReads) * pmem.BlockSize / float64(res.Obs.Commits),
							"hot-hit":         float64(hot.Hits) / float64(max(hot.Hits+hot.Misses, 1)),
							"cap":             float64(e.Config().HotTupleCap),
						}
					})
				})
			}
		}
	}
}
