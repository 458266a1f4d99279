// Package obs is the engine-wide observability layer: commit-path phase
// accounting in virtual nanoseconds, an abort-reason taxonomy, log2-bucketed
// latency histograms, and a unified registry that snapshots everything
// (including the pmem hardware counters) into one diffable struct.
//
// The paper's argument is an accounting argument — where commit-path
// nanoseconds go (log append vs. data flush) and where media writes come from
// (partial vs. full blocks, hot-tuple elision). This package is the
// instrument that makes those breakdowns observable without ad-hoc test code.
//
// Everything here follows the ownership rules of package sim: per-worker
// accumulators (PhaseSet, WALStats, HotSetStats) are written by exactly one
// worker goroutine and may be read by others only after the workers have
// stopped. Cross-worker counters (AbortCounts) are atomic.
package obs

import "falcon/internal/sim"

// Phase identifies one segment of a transaction's virtual-time budget. The
// phases partition a transaction completely: every virtual nanosecond a
// worker clock advances between Begin and commit/abort is attributed to
// exactly one phase, so the per-phase sums add up to the total transactional
// virtual time.
type Phase uint8

const (
	// PhaseExec is transaction execution: index probes, tuple reads, write
	// buffering, and everything not claimed by a more specific phase.
	PhaseExec Phase = iota
	// PhaseCC is concurrency control: lock acquisition, OCC validation, and
	// lock release.
	PhaseCC
	// PhaseLogAppend is redo-log work: window claim, op appends, and the
	// commit record (or the out-of-place commit marker, its moral equivalent).
	PhaseLogAppend
	// PhaseHeapWrite is applying the write set to the tuple heap: in-place
	// overwrites, out-of-place version materialization, timestamps, and
	// version-store publication/GC.
	PhaseHeapWrite
	// PhaseIndexUpdate is commit-time index maintenance: inserts, deletes,
	// and out-of-place repointing.
	PhaseIndexUpdate
	// PhaseFlush is the hinted data flush: clwb over touched tuples plus the
	// hot-set bookkeeping that decides whether to skip them.
	PhaseFlush
	// PhaseAbort is rollback work: log discard, lock restore, insert-slot
	// recycling, and the abort overhead charge.
	PhaseAbort
	// PhaseGroupWait is group-commit durability stalls: the bounded wait a
	// worker pays when it must reclaim a log slot whose record belongs to a
	// durability epoch that has not been sealed yet (the epoch timeout is the
	// bound), plus the forced seal that releases the slot.
	PhaseGroupWait

	// The remaining phases partition recovery (core.Recover) rather than a
	// transaction: restart-path virtual time reported from the same registry
	// as the commit path, so `falcon recovery -stats` shows both.

	// PhaseRecCatalog is reading the durable catalog and reattaching table
	// heaps and log windows.
	PhaseRecCatalog
	// PhaseRecIndex is opening NVM indexes or allocating fresh DRAM ones.
	PhaseRecIndex
	// PhaseRecReplay is scanning log windows and replaying committed records.
	PhaseRecReplay
	// PhaseRecHeapScan is heap-order scanning: rebuilding DRAM indexes and
	// the out-of-place engines' full-heap recovery pass.
	PhaseRecHeapScan

	// NumPhases is the number of phases (array sizing).
	NumPhases = int(PhaseRecHeapScan) + 1
)

// PhaseNames maps Phase values to stable short names (rendering, JSON).
var PhaseNames = [NumPhases]string{
	"exec", "cc", "log-append", "heap-write", "index-update", "flush", "abort",
	"group-wait",
	"rec-catalog", "rec-index", "rec-replay", "rec-heap-scan",
}

func (p Phase) String() string {
	if int(p) < NumPhases {
		return PhaseNames[p]
	}
	return "unknown"
}

// PhaseSet accumulates virtual nanoseconds per phase for one worker. Like
// sim.Clock it is single-owner: only the owning worker updates it, and other
// goroutines may read it only once the worker has stopped. The padding keeps
// adjacent workers' sets off one cache line.
type PhaseSet struct {
	nanos [NumPhases]uint64
	_     [1]uint64
}

// Nanos returns the accumulated virtual nanoseconds for phase p.
func (s *PhaseSet) Nanos(p Phase) uint64 { return s.nanos[p] }

// Reset zeroes the accumulator (between benchmark phases).
func (s *PhaseSet) Reset() { s.nanos = [NumPhases]uint64{} }

// AddTo sums this set into dst (snapshot aggregation across workers).
func (s *PhaseSet) AddTo(dst *[NumPhases]uint64) {
	for i, n := range s.nanos {
		dst[i] += n
	}
}

// PhaseTimer attributes a worker clock's advances to phases. It is a plain
// value (zero allocations) wrapped around the existing sim.Clock: switching
// phases costs two clock reads and one add. A timer with a nil PhaseSet is
// inert — every method is a cheap no-op — so uninstrumented runs pay near
// nothing.
//
// Usage is a flat state machine, not nested scopes: Start opens accounting
// in PhaseExec, To(p) closes the current segment and opens the next, and
// Finish closes the last segment. Call sites that may run under several
// phases restore the previous phase with the value To returns.
type PhaseTimer struct {
	ps   *PhaseSet
	clk  *sim.Clock
	tr   *WorkerTracer
	cur  Phase
	mark uint64
}

// Start binds the timer to a worker's PhaseSet and clock and opens
// accounting in PhaseExec. Any attached tracer is cleared; AttachTrace must
// follow Start when span capture is wanted.
func (t *PhaseTimer) Start(ps *PhaseSet, clk *sim.Clock) {
	t.ps, t.clk, t.tr, t.cur, t.mark = ps, clk, nil, PhaseExec, clk.Nanos()
}

// AttachTrace routes every closed phase segment to tr as an EvPhase span.
// The timer already knows each segment's boundaries, so attaching here
// instruments all phases with no extra call sites. A nil tr (the common,
// unarmed case) costs one pointer test per transition.
func (t *PhaseTimer) AttachTrace(tr *WorkerTracer) { t.tr = tr }

// To closes the current segment (attributing its virtual time to the current
// phase), opens a segment in p, and returns the phase that was current —
// so callers can restore it.
func (t *PhaseTimer) To(p Phase) Phase {
	if t.ps == nil {
		return p
	}
	now := t.clk.Nanos()
	t.ps.nanos[t.cur] += now - t.mark
	if t.tr != nil {
		t.tr.PhaseSeg(t.cur, t.mark, now)
	}
	prev := t.cur
	t.cur, t.mark = p, now
	return prev
}

// Finish closes the last segment and detaches the timer.
func (t *PhaseTimer) Finish() {
	if t.ps == nil {
		return
	}
	now := t.clk.Nanos()
	t.ps.nanos[t.cur] += now - t.mark
	if t.tr != nil {
		t.tr.PhaseSeg(t.cur, t.mark, now)
		t.tr = nil
	}
	t.ps = nil
}
