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

// BenchmarkAblationHotTupleCap: the hot-tuple LRU capacity trades flush
// elision against mistracking lukewarm tuples whose dirty lines get evicted
// (amplified) anyway. Under Zipfian access the sweet spot tracks the
// cache-resident hot set.
func BenchmarkAblationHotTupleCap(b *testing.B) {
	wcfg := ycsb.Config{Records: 30_000, Workload: ycsb.A, Distribution: ycsb.Zipfian}
	for _, cap := range []int{16, 64, 256, 1024} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			runCached(b, func(b *testing.B) map[string]float64 {
				cfg := core.FalconConfig()
				cfg.Threads = benchThreads
				cfg.HotTupleCap = cap
				mem := pmem.Config{
					DeviceBytes: bench.EstimateDeviceBytes(cfg, ycsb.TableSpecs(wcfg)),
					CacheBytes:  bench.CacheBytesFor(benchThreads),
				}
				res := runYCSBWith(b, cfg, wcfg, mem)
				return map[string]float64{
					"MTxn/s(virtual)": res.MTxnPerSec,
					"media-writes":    float64(res.Obs.Mem.MediaWrites),
				}
			})
		})
	}
}
