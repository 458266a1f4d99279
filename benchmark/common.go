package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/pmem"
)

// threads is fixed: two workers or two connections on every workload, so the
// load does not grow on a bigger host. main pins GOMAXPROCS to the same.
const threads = 2

// unlimited is the op budget of a loop that only the clock ends.
const unlimited = ^uint64(0)

// options are the inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale divides table sizes, warm-up and replay counts. main sets 1; only
	// the smoke tests shrink the workloads.
	scale int
	// out is the directory the trace and result files go to.
	out string
}

// runStats is what one measured section of load produced.
type runStats struct {
	attempted, failed uint64
	// ops counts completed ops: committed transactions or 200-OK responses.
	ops uint64
	// elapsed and cpu are the wall time and the process CPU time of the
	// section; engine is what the engine counted over it.
	elapsed, cpu time.Duration
	engine       engineWindow
	lat          latSummary
	// virtLat holds per-op virtual nanoseconds (engine workloads, traced).
	virtLat latSummary
	extra   map[string]float64 // loadgen.* and server.* values of the section
}

// add folds a later section of the same run into st. The engine window and
// the extras stay those of the first section.
func (st *runStats) add(o runStats) {
	if st.attempted == 0 {
		st.engine, st.extra = o.engine, o.extra
	}
	st.attempted += o.attempted
	st.failed += o.failed
	st.ops += o.ops
	st.elapsed += o.elapsed
	st.cpu += o.cpu
	st.lat, st.virtLat = poolLat(st.lat, o.lat), poolLat(st.virtLat, o.virtLat)
}

func (st runStats) opsPerSec() float64 {
	if st.elapsed <= 0 {
		return 0
	}
	return float64(st.ops) / st.elapsed.Seconds()
}

// workload is one of the four benchmark workloads. setup may be called on a
// fresh value several times in a run (set-up time is reported as a median).
type workload interface {
	// setup builds, loads, starts and warms everything the run needs.
	setup() error
	// run drives the generated load for d, continuing the op stream where the
	// last call left it. On the workloads whose state grows it returns earlier,
	// when the epoch's fixed number of ops is done. With rec non-nil it is a
	// traced run: every op is timed and spans are recorded.
	run(d time.Duration, rec *spanRecorder) (runStats, error)
	// rewind puts the workload back to where it stood after warm-up, so that
	// the next run repeats the op stream of the last one.
	rewind() error
	// check stops the load path, crashes and recovers the engine and compares
	// its state with what was acknowledged.
	check() (checkReport, error)
	// close releases listeners and goroutines of a set-up that will not be
	// checked.
	close()
}

// runFor measures wl for d: it runs, and rewinds and runs again for as long
// as a run ends before the time is up.
func runFor(wl workload, d time.Duration) (runStats, error) {
	var total runStats
	for {
		st, err := wl.run(d-total.elapsed, nil)
		total.add(st)
		if err != nil || st.attempted == 0 || total.elapsed >= d {
			return total, err
		}
		if err := wl.rewind(); err != nil {
			return total, fmt.Errorf("rewind: %w", err)
		}
	}
}

// checkReport is the outcome of the correctness and durability checks.
type checkReport struct {
	keysChecked          int
	recoverHost          time.Duration
	recoverVirtualNanos  uint64
	recordsReplayed      int
	ambiguousKeysSkipped int
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "ycsb_a_zipf":
		return &ycsbWorkload{opt: o}, nil
	case "tpcc_mix":
		return &tpccWorkload{opt: o}, nil
	case "serve_closed_rw":
		return &serveWorkload{opt: o}, nil
	case "serve_open_ro":
		return &serveWorkload{opt: o, open: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// usage is the process's CPU time and peak resident set.
type usage struct {
	cpu       time.Duration
	maxRSSMiB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSMiB: float64(ru.Maxrss) / 1024} // Linux reports KiB
}

// engineWindow is the engine-side view of a measured section: counter deltas
// and the virtual time the workers advanced.
type engineWindow struct {
	snap       obs.Snapshot
	clockNanos uint64 // sum over workers
}

// sectionMark is a reading at a quiescent point before a measured section:
// the engine's counters and clocks, and the process CPU time.
type sectionMark struct {
	snap   obs.Snapshot
	clocks uint64
	cpu    time.Duration
}

func markSection(e *core.Engine) sectionMark {
	m := sectionMark{snap: e.ObsSnapshot(), cpu: readUsage().cpu}
	for _, c := range e.Clocks() {
		m.clocks += c.Nanos()
	}
	return m
}

// until returns what the engine counted and the CPU time the process used
// since the mark; the engine must be quiescent again.
func (m sectionMark) until(e *core.Engine) (engineWindow, time.Duration) {
	now := markSection(e)
	return engineWindow{snap: now.snap.Sub(m.snap), clockNanos: now.clocks - m.clocks}, now.cpu - m.cpu
}

// virtMTxnPerSec is commits x workers / sum of clock advance, in millions per
// virtual second — the paper's unit.
func (w engineWindow) virtMTxnPerSec() float64 {
	if w.clockNanos == 0 {
		return 0
	}
	return float64(w.snap.Commits) * threads / float64(w.clockNanos) * 1e3
}

// mediaBytesPerCommit counts both directions between XPBuffer and media, so
// that the read-only workload reports its read traffic and not a flat 0.
func (w engineWindow) mediaBytesPerCommit() float64 {
	if w.snap.Commits == 0 {
		return 0
	}
	return float64(w.snap.Mem.MediaWrites+w.snap.Mem.MediaReads) * pmem.BlockSize / float64(w.snap.Commits)
}

// falconEngine builds the Falcon preset with the benchmark's two threads on
// a device sized for specs, with the simulated cache of a two-core machine.
func falconEngine(specs []core.TableSpec) (*core.Engine, error) {
	return engineFor(falconConfig(), specs)
}

func falconConfig() core.Config {
	cfg := core.FalconConfig()
	cfg.Threads = threads
	return cfg
}

// runWorkers runs fn(w) on the two workers until the deadline passes or a
// worker fails, and returns the wall time from start to the last worker's
// exit. fn polls stop between ops.
func runWorkers(d time.Duration, fn func(w int, stop *atomic.Bool) error) (time.Duration, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, threads)
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if errs[w] = fn(w, &stop); errs[w] != nil {
				stop.Store(true)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}
