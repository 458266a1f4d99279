// Package bench runs workloads against engine configurations and reports
// throughput and latency in virtual time (see package sim for why wall-clock
// measurement is meaningless on this host). It produces the rows and series
// behind every figure reproduced in EXPERIMENTS.md.
package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/sim"
)

// ErrStopped reports a run cut short by its Options.Stop flag (an external
// drain, not a worker failure): workers exited after their current
// transaction and the engine is quiescent.
var ErrStopped = errors.New("bench: run stopped")

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
	// EpochTxns, with OnEpoch, splits the measured phase into epochs of
	// this many transactions per worker: after each epoch the workers
	// quiesce and OnEpoch receives the cumulative post-warmup snapshot —
	// the streaming-snapshot hook for watching long sweeps mid-flight.
	EpochTxns int
	// OnEpoch is called after each epoch (and is never called when
	// EpochTxns <= 0). The epoch counter starts at 1.
	OnEpoch func(epoch int, snap obs.Snapshot)
	// Stop, when non-nil, is an external cancellation flag polled alongside
	// the run's internal error-cancel check: once Stop.Stopped() reports
	// true, every worker exits after its current transaction and Run returns
	// ErrStopped. Used for SIGTERM drains that share one flag between a
	// benchmark phase and a serving front-end.
	Stop *StopFlag
	// ParWorkers runs the workers through the engine's deterministic group
	// scheduler (core.Engine.EnterGroup): real goroutines, virtual-time round
	// barriers, results independent of GOMAXPROCS and host schedule. Note
	// that group mode is a different simulated machine than free-running mode
	// (per-worker timing partitions, round-frozen conflict windows), so its
	// virtual numbers are not comparable with ParWorkers=false runs.
	ParWorkers bool
}

// Result is one measured configuration.
type Result struct {
	// Engine and Workload label the run.
	Engine   string
	Workload string
	// Workers actually used.
	Workers int
	// Committed transactions and aborted attempts during measurement.
	Committed uint64
	Aborted   uint64
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
	LatHists []obs.HistogramDump
	// MediaWrites/MediaReads/WriteAmp summarize NVM traffic during the run.
	MediaWrites uint64
	MediaReads  uint64
	WriteAmp    float64
	// Obs is the full observability snapshot of the measured phase: commit
	// path phase nanos, abort taxonomy, WAL/hot-set gauges, and the pmem
	// counters diffed against the post-warmup baseline.
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
					// Retire from the round scheduler on any exit path —
					// a worker that leaves without this parks the others
					// at the next barrier forever.
					defer g.Leave()
				}
				clk := e.Clock(w)
				for i := 0; i < txns; i++ {
					if cancel.Load() || opts.Stop.Stopped() {
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
		if opts.Stop.Stopped() {
			return ErrStopped
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

	if opts.EpochTxns > 0 && opts.OnEpoch != nil {
		// Epoch streaming: run the measured phase in chunks; between chunks
		// the workers have joined, so the engine snapshot is coherent.
		for done, epoch := 0, 1; done < opts.TxnsPerWorker; epoch++ {
			chunk := opts.EpochTxns
			if done+chunk > opts.TxnsPerWorker {
				chunk = opts.TxnsPerWorker - done
			}
			if err := runPhase(chunk, true); err != nil {
				return nil, err
			}
			done += chunk
			opts.OnEpoch(epoch, e.ObsSnapshot().Sub(obs0))
		}
	} else if err := runPhase(opts.TxnsPerWorker, true); err != nil {
		return nil, err
	}

	snap := e.ObsSnapshot().Sub(obs0)
	res := &Result{
		Engine:       e.Config().Name,
		Workload:     workload,
		Workers:      opts.Workers,
		Committed:    e.Commits(),
		Aborted:      e.Aborts(),
		VirtualNanos: sim.MaxNanos(e.Clocks()),
		MediaWrites:  snap.Mem.MediaWrites,
		MediaReads:   snap.Mem.MediaReads,
		WriteAmp:     snap.Mem.WriteAmplification(),
		Obs:          snap,
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
// the mean, the p50/p95/p99 quantiles, and the full bucket dump per class.
func percentiles(hists [][]obs.Histogram, classes int) (avg, p50, p95, p99 []uint64, dumps []obs.HistogramDump) {
	avg = make([]uint64, classes)
	p50 = make([]uint64, classes)
	p95 = make([]uint64, classes)
	p99 = make([]uint64, classes)
	dumps = make([]obs.HistogramDump, classes)
	for c := 0; c < classes; c++ {
		var merged obs.Histogram
		for w := range hists {
			merged.Merge(&hists[w][c])
		}
		dumps[c] = merged.Dump()
		if merged.Count() == 0 {
			continue
		}
		avg[c] = merged.Mean()
		p50[c] = merged.Quantile(0.50)
		p95[c] = merged.Quantile(0.95)
		p99[c] = merged.Quantile(0.99)
	}
	return avg, p50, p95, p99, dumps
}
