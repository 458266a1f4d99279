// Package bench runs workloads against engine configurations and reports
// throughput and latency in virtual time (see package sim for why wall-clock
// measurement is meaningless on this host). It produces the rows and series
// behind every figure reproduced in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/sim"
)

// TxnFunc executes one transaction for worker w and returns a latency class
// (an arbitrary small int, e.g. the TPC-C transaction type) for percentile
// bookkeeping.
type TxnFunc func(w int) (class int, err error)

// Options parameterize a run.
type Options struct {
	// Workers is the number of worker threads; must not exceed the
	// engine's configured Threads.
	Workers int
	// TxnsPerWorker is the measured transaction count per worker.
	TxnsPerWorker int
	// WarmupPerWorker transactions run before counters/clocks reset.
	WarmupPerWorker int
	// Classes is the number of latency classes (max class + 1); 0 = 1.
	Classes int
	// Trace, when non-nil, arms transaction-level trace capture for the
	// measured phase (warmup is never traced); the dump lands on
	// Result.Trace.
	Trace *obs.TraceOptions
	// Contend arms the contention & flush-amplification observatory for the
	// measured phase (warmup is never attributed); the report lands on
	// Result.Obs.Contend.
	Contend bool
	// ParWorkers runs the workers through the engine's deterministic group
	// scheduler (core.Engine.EnterGroup): real goroutines on the one simulated
	// machine, one at a time, the token handed on in virtual-time order, so
	// results are independent of GOMAXPROCS and host schedule. It is the same
	// machine as a free-running run: one worker gives the same result either
	// way, and several give one of the interleavings a free-running run could.
	ParWorkers bool
}

// Result is one measured configuration.
type Result struct {
	// Engine and Workload label the run.
	Engine   string
	Workload string
	// Workers actually used.
	Workers int
	// VirtualNanos is the run's completion time (max worker clock).
	VirtualNanos uint64
	// MTxnPerSec is throughput in million transactions per virtual second —
	// the paper's reporting unit. It sums per-worker rates
	// (txns_w / clock_w), the fixed-duration estimator: a real benchmark
	// runs workers for equal time, not equal transaction counts.
	MTxnPerSec float64
	// LatAvgNanos and the quantile columns are per-class virtual latencies
	// recovered from log2-bucketed histograms (avg is exact; quantiles are
	// within one bucket of the sorted-sample value).
	LatAvgNanos []uint64
	LatP50Nanos []uint64
	LatP95Nanos []uint64
	LatP99Nanos []uint64
	// LatHists is the merged per-class latency distribution (log2 buckets),
	// for offline analysis beyond the fixed quantile columns above.
	LatHists []obs.Histogram
	// Obs is the full observability snapshot of the measured phase: commits
	// and aborts, commit path phase nanos, abort taxonomy, WAL/hot-set
	// gauges, and the pmem counters (NVM traffic, write amplification)
	// diffed against the post-warmup baseline.
	Obs obs.Snapshot
	// Trace is the transaction-level trace of the measured phase, present
	// only when Options.Trace was set.
	Trace *obs.TraceDump `json:"Trace,omitempty"`
	// ParWorkers records that the run used the deterministic group scheduler.
	ParWorkers bool `json:"ParWorkers,omitempty"`
}

// Run executes the workload on the engine and measures it.
//
// Latency samples are accumulated into per-worker, per-class histograms of
// constant size, so memory does not grow with TxnsPerWorker and no sample
// slices outlive the run. Warmup exclusion is two-sided: the engine-owned
// counters are zeroed by ResetCounters, while the pmem hardware counters —
// owned by the shared simulated device, which warmup leaves warm — are
// excluded by diffing point-in-time snapshots (see the ResetCounters doc
// comment for why they cannot simply be reset).
func Run(e *core.Engine, workload string, opts Options, fn TxnFunc) (*Result, error) {
	if opts.Workers <= 0 || opts.Workers > e.Config().Threads {
		opts.Workers = e.Config().Threads
	}
	if opts.Classes <= 0 {
		opts.Classes = 1
	}

	// hists[w] is worker w's private per-class histogram row; workers never
	// share a histogram, so recording needs no synchronization.
	hists := make([][]obs.Histogram, opts.Workers)
	for w := range hists {
		hists[w] = make([]obs.Histogram, opts.Classes)
	}

	if opts.ParWorkers {
		e.EnterGroup()
		defer e.LeaveGroup()
	}

	runPhase := func(txns int, record bool) error {
		var wg sync.WaitGroup
		errs := make([]error, opts.Workers)
		// cancel aborts the whole phase promptly when any worker fails:
		// without it the failing worker returns while the others grind
		// through their full transaction count.
		var cancel atomic.Bool
		var g *sim.Group
		if opts.ParWorkers {
			g = e.Group()
			g.Begin(opts.Workers)
		}
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if g != nil {
					// Retire from the scheduler on any exit path — a worker
					// that leaves without this keeps the token, or its turn
					// at it, forever.
					defer g.Leave(w)
				}
				clk := e.Clock(w)
				for i := 0; i < txns; i++ {
					if cancel.Load() {
						return
					}
					before := clk.Nanos()
					class, err := fn(w)
					if err != nil {
						errs[w] = fmt.Errorf("worker %d txn %d: %w", w, i, err)
						cancel.Store(true)
						return
					}
					if record {
						if class < 0 || class >= opts.Classes {
							class = 0
						}
						hists[w][class].Observe(clk.Nanos() - before)
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	if opts.WarmupPerWorker > 0 {
		if err := runPhase(opts.WarmupPerWorker, false); err != nil {
			return nil, err
		}
	}
	e.ResetClocks()
	e.ResetCounters()
	obs0 := e.ObsSnapshot() // post-warmup baseline (pmem counters et al.)

	// Arm the tracer and the observatory for the measured phase only — the
	// workers are quiescent here, the same window ResetCounters relies on —
	// and disarm however the phase ends. obs0.Contend is nil, so Sub passes
	// the measured-phase report through untouched.
	var tracer *obs.Tracer
	if opts.Trace != nil {
		tracer = obs.NewTracer(e.Config().Threads, *opts.Trace)
	}
	var observatory *obs.Observatory
	if opts.Contend {
		observatory = e.NewObservatory()
	}
	e.Arm(tracer, observatory)
	defer e.Arm(nil, nil)

	if err := runPhase(opts.TxnsPerWorker, true); err != nil {
		return nil, err
	}

	res := &Result{
		Engine:       e.Config().Name,
		Workload:     workload,
		Workers:      opts.Workers,
		VirtualNanos: sim.MaxNanos(e.Clocks()),
		Obs:          e.ObsSnapshot().Sub(obs0),
		ParWorkers:   opts.ParWorkers,
	}
	for w := 0; w < opts.Workers; w++ {
		if n := e.Clock(w).Nanos(); n > 0 {
			res.MTxnPerSec += float64(opts.TxnsPerWorker) / (float64(n) / 1e9) / 1e6
		}
	}
	res.LatAvgNanos, res.LatP50Nanos, res.LatP95Nanos, res.LatP99Nanos, res.LatHists =
		percentiles(hists, opts.Classes)
	res.Trace = tracer.Dump()
	return res, nil
}

// percentiles merges the per-worker histogram rows class-wise and extracts
// the mean and the p50/p95/p99 quantiles of each merged class.
func percentiles(hists [][]obs.Histogram, classes int) (avg, p50, p95, p99 []uint64, merged []obs.Histogram) {
	avg = make([]uint64, classes)
	p50 = make([]uint64, classes)
	p95 = make([]uint64, classes)
	p99 = make([]uint64, classes)
	merged = make([]obs.Histogram, classes)
	for c := range merged {
		m := &merged[c]
		for w := range hists {
			m.Merge(&hists[w][c])
		}
		if m.Count == 0 {
			continue
		}
		avg[c] = m.Mean()
		p50[c] = m.Quantile(0.50)
		p95[c] = m.Quantile(0.95)
		p99[c] = m.Quantile(0.99)
	}
	return avg, p50, p95, p99, merged
}
