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
// accumulators (Probe, WALStats, HotSetStats) are written by exactly one
// worker goroutine and, a probe's outcome counts apart, may be read by others
// only after the workers have stopped.
package obs

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
