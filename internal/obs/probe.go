package obs

import (
	"sync/atomic"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// Probe is one worker's instrumentation seam: the engine, the log window and
// the memory system each state what happened to it once, in a fixed
// vocabulary, and the probe decides who hears about it — the worker's phase
// accounting and outcome counts (always), its trace shard and its contention
// shard (while armed; nil otherwise, so a disarmed event costs a pointer
// test).
//
// A probe is single-writer like the clock it reads: only the owning worker
// calls its methods, at most one transaction (or one Start…Finish stretch) is
// open on it at a time, and it never advances a clock. The outcome counts are
// atomics and may be read while the worker runs; the phase nanoseconds and
// whatever the two consumers hold may be read only while it is quiescent,
// which is also when Arm and Reset may be called.
type Probe struct {
	// nanos accumulates virtual nanoseconds per phase.
	nanos [NumPhases]uint64
	// clk is non-nil between Begin/Start and End/Finish; cur and mark are the
	// open segment's phase and start.
	clk  *sim.Clock
	mark uint64
	cur  Phase

	commits, aborts atomic.Uint64
	reasons         [NumAbortReasons]atomic.Uint64

	tr *WorkerTracer
	cw *contendShard
	// The pad rounds a probe up to whole host cache lines, so neighbours in
	// an engine's slice never write to one line.
	_ [6]uint64
}

// Arm routes the probe's events to worker's shard of tr and of o; either may
// be nil, and Arm(nil, nil, 0) disarms.
func (p *Probe) Arm(tr *Tracer, o *Observatory, worker int) {
	p.tr, p.cw = tr.Worker(worker), o.shard(worker)
}

// Begin opens a transaction attempt: accounting starts in PhaseExec at clk's
// current time and the trace scope opens under tid.
func (p *Probe) Begin(tid uint64, clk *sim.Clock) {
	p.Start(clk)
	p.tr.TxnBegin(tid, p.mark)
}

// Start opens accounting in PhaseExec with no transaction around it (recovery,
// a bare store loop); Finish closes it.
func (p *Probe) Start(clk *sim.Clock) {
	p.clk, p.cur, p.mark = clk, PhaseExec, clk.Nanos()
}

// To closes the open segment, attributing its virtual time to the current
// phase, opens one in ph and returns the phase that was current so that a
// call site reached under several phases can restore it. On a probe with
// nothing open it does nothing and returns ph.
func (p *Probe) To(ph Phase) Phase {
	if p.clk == nil {
		return ph
	}
	prev := p.cur
	p.cur, p.mark = ph, p.closeSegment()
	return prev
}

func (p *Probe) closeSegment() (now uint64) {
	now = p.clk.Nanos()
	p.nanos[p.cur] += now - p.mark
	if p.tr != nil {
		p.tr.PhaseSeg(p.cur, p.mark, now)
	}
	return now
}

// Finish closes the last segment of a Start.
func (p *Probe) Finish() {
	if p.clk != nil {
		p.closeSegment()
		p.clk = nil
	}
}

// End reports the open transaction's outcome, once: it closes the last
// segment, counts a commit or an abort under cause (an out-of-range cause
// counts as AbortOther) and closes the trace scope.
func (p *Probe) End(committed bool, cause AbortReason) {
	if p.clk == nil {
		return
	}
	now := p.closeSegment()
	p.clk = nil
	reason := -1
	if committed {
		p.commits.Add(1)
	} else {
		if int(cause) >= NumAbortReasons {
			cause = AbortOther
		}
		p.aborts.Add(1)
		p.reasons[cause].Add(1)
		reason = int(cause)
	}
	p.tr.TxnEnd(now, reason)
}

// AddCounts sums the probe's outcome counts into s. Unlike AddTo it may be
// called while the worker runs.
func (p *Probe) AddCounts(s *Snapshot) {
	s.Commits += p.commits.Load()
	s.Aborts += p.aborts.Load()
	for i := range p.reasons {
		s.AbortCounts[i] += p.reasons[i].Load()
	}
}

// AddTo sums the probe's outcome counts and phase nanoseconds into s.
func (p *Probe) AddTo(s *Snapshot) {
	p.AddCounts(s)
	for i, n := range p.nanos {
		s.PhaseNanos[i] += n
	}
}

// Reset zeroes the counts and the phase accounting; the arming stays.
func (p *Probe) Reset() {
	p.commits.Store(0)
	p.aborts.Store(0)
	for i := range p.reasons {
		p.reasons[i].Store(0)
	}
	p.nanos = [NumPhases]uint64{}
}

// ---- reported by core ----

// Touch is one access to key in table (the popularity behind attribution).
func (p *Probe) Touch(table int, key uint64) {
	if p.cw != nil {
		p.cw.touch(table, key)
	}
}

// Conflict is one concurrency-control conflict of kind against (table, key)
// at heap slot, held by worker holder (-1 when unknown), at virtual time now.
func (p *Probe) Conflict(table int, key, slot uint64, kind ConflictKind, holder int, now uint64) {
	if p.cw != nil {
		p.cw.conflict(p.tr, table, key, slot, kind, holder, 0, now)
	}
}

// SpinWait is a read that stalled from start to now, over spins probes,
// behind the mid-apply writer of (table, key) at slot.
func (p *Probe) SpinWait(table int, key, slot uint64, holder int, start, now, spins uint64) {
	p.tr.Span(EvLockWait, start, now, slot, spins)
	if p.cw != nil {
		p.cw.conflict(p.tr, table, key, slot, ConflictSpinWait, holder, now-start, now)
	}
}

// LogicalBytes is n bytes of committed write-set payload for table — the
// denominator of flush amplification.
func (p *Probe) LogicalBytes(table, n uint64) {
	if p.cw != nil && table < uint64(len(p.cw.logical)) {
		p.cw.logical[table] += n
	}
}

// DataFlush is one commit's pass over its touched tuples: the cache lines
// written back with clwb and the tuple write-backs the hot set elided.
func (p *Probe) DataFlush(start, end, lines, elided uint64) {
	if lines+elided > 0 {
		p.tr.Span(EvFlushTrain, start, end, lines, elided)
	}
}

// ---- reported by wal; a bare window's probe is nil ----

// WALClaim is the claim of log-window slot at virtual time at; wrapped says
// the slot had been used before.
func (p *Probe) WALClaim(at, slot uint64, wrapped bool) {
	if p != nil && p.tr != nil {
		p.tr.Instant(EvWALClaim, at, slot, b2u(wrapped))
	}
}

// FlushTrain is the per-commit drain of one log record: lines of clwb and the
// fence behind them.
func (p *Probe) FlushTrain(start, end, lines uint64) {
	if p == nil {
		return
	}
	p.tr.Span(EvFlushTrain, start, end, lines, 0)
	if p.cw != nil {
		p.cw.walFlushLines += lines
	}
}

// EpochSeal is the sealing of durability epoch id, which coalesced records
// records.
func (p *Probe) EpochSeal(start, end, id, records uint64) {
	if p != nil {
		p.tr.Span(EvEpochSeal, start, end, id, records)
	}
}

// ---- reported by pmem, through the System's one hook ----

// Flush is one write-back of the line or block at addr. An XPBuffer eviction
// took [start, end] and is traced; every kind is attributed.
func (p *Probe) Flush(kind pmem.FlushKind, addr, start, end uint64) {
	if p == nil {
		return
	}
	if kind >= pmem.FlushXPFull {
		p.tr.Span(EvXPEvict, start, end, b2u(kind == pmem.FlushXPFull), addr)
	}
	if p.cw != nil {
		p.cw.flush(kind, addr)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
