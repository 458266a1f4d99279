// Durability epochs: the state machine behind leader-based group commit.
//
// With group commit enabled, a committing transaction no longer drains its
// record individually. Commit splits into two points:
//
//   - the *publish* point: the record is written with StatePublished and its
//     epoch id, the transaction's conflict window closes (locks release, the
//     caller is acknowledged), but nothing is fenced or flushed;
//   - the *durable* point: the record's durability epoch is sealed — every
//     enlisted record's dirty ranges are batched into hinted multi-line flush
//     trains (pmem.Space.CLWBTrain), one drain is issued, and the epoch's id
//     is persisted in the durable epoch marker.
//
// Epoch membership is a pure function of virtual time — epoch id
// v/EpochNanos+1 — so group formation is byte-identical across GOMAXPROCS in
// the deterministic worker-parallel mode. A publisher whose clock lags behind
// the sealed marker (its epoch already sealed) cannot re-open the sealed id —
// that would regress the marker. Free-running workers future-date such
// records into the first unsealed epoch (coalescing survives clock drift;
// reclaims still never stall because the reclaimer seals immediately), while
// deterministic group mode falls back to the per-commit drain (epoch 0) so a
// laggard's slot reclaims never chain to the fastest clock in the system
// through the bounded timeout.
// Leadership is implicit and also virtual-time-derived: whichever committer
// first crosses an epoch's boundary seals everything that expired before it
// (sealExpired), playing the leader's role of batching the enlisted windows'
// lines and releasing the followers; a worker that must reclaim a log slot
// whose record sits in an unsealed epoch becomes that epoch's leader and
// seals it on the spot (reclaimWait — the group-wait phase). The epoch
// boundary is an upper bound on an epoch's lifetime, never a lower one, so
// singleton commits stall at most one epoch and slot reclaims do not stall at
// all outside deterministic group mode (where seals must defer to the round
// barrier and the reclaimer pays the bounded timeout instead).
//
// Crash atomicity per epoch: the seal orders record trains → fence → marker
// publish → fence → data trains. The XPBuffer drains even on an ADR crash,
// so a clwb'd line is durable at the crash instant; by the time any data
// line of an epoch is flushed, the marker (and with it the replayability of
// every record in the epoch) is already durable. Recovery replays a
// StatePublished record only when its epoch is covered by the recovered
// marker (ADR) — or unconditionally under eADR, where the publish point is
// physically durable — so an epoch's transactions surface all-or-nothing.
package wal

import (
	"sync"

	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// DefaultEpochNanos is the default durability-epoch length (and therefore
// the bounded group-commit timeout) in virtual nanoseconds. Transactions run
// a couple of microseconds, so a 4 µs epoch typically coalesces several
// commits per thread while a singleton commit waits at most one epoch.
const DefaultEpochNanos = 4096

// pendingEpoch is one open (published but unsealed) durability epoch.
type pendingEpoch struct {
	id uint64
	// firstV is the earliest publish time in the epoch; pubV the publish
	// time of every enlisted record (durable-lag accounting).
	firstV uint64
	pubV   []uint64
	// recSpans are the log-record ranges that must be durable before the
	// marker publishes; dataSpans the deferred tuple flushes that follow it.
	recSpans  []pmem.Span
	dataSpans []pmem.Span
}

// EpochBoard is the engine-wide group-commit coordinator: the set of open
// epochs, the durable epoch marker, and the seal machinery. Windows publish
// into it; any committer crossing an epoch boundary seals what expired.
//
// The mutex serializes free-running workers. In deterministic group mode
// every state mutation happens inside the round barrier (publishes run in
// the canonical replay) except reclaimWait, which only advances the calling
// worker's clock and counters — deferSeal keeps worker-side callers from
// sealing outside the barrier.
type EpochBoard struct {
	mu         sync.Mutex
	space      pmem.Space
	markerOff  uint64
	epochNanos uint64
	// marker mirrors the durable epoch marker: the highest sealed epoch id.
	marker  uint64
	pending []*pendingEpoch // ascending id
	// deferSeal, set while the deterministic group scheduler is active,
	// forbids sealing from worker-side call sites (reclaimWait); expired
	// epochs then seal inside the round barrier via sealExpired.
	deferSeal bool

	// stats, guarded by mu; snapshots are taken while workers are quiescent.
	sealed          uint64
	records         uint64
	trainSpans      uint64
	forcedSeals     uint64
	forcedWaitNanos uint64
	sizeHist        obs.Histogram
	lagHist         obs.Histogram
}

// NewEpochBoard creates a board whose durable marker lives at markerOff (one
// 8-byte word; the caller provides a 64 B line). epochNanos of 0 selects
// DefaultEpochNanos. The marker starts at zero — no epoch sealed — which the
// caller must have made durable (fresh engines allocate it zeroed; recovery
// resets it after consuming the old value).
func NewEpochBoard(space pmem.Space, markerOff, epochNanos uint64) *EpochBoard {
	if epochNanos == 0 {
		epochNanos = DefaultEpochNanos
	}
	return &EpochBoard{space: space, markerOff: markerOff, epochNanos: epochNanos}
}

// epochOf maps a virtual time to its epoch id (ids start at 1; 0 means "no
// epoch" in the marker).
func (b *EpochBoard) epochOf(v uint64) uint64 { return v/b.epochNanos + 1 }

// EnterGroup switches the board into deterministic group mode: worker-side
// slot reclaims stop sealing (the round barrier seals instead). Must be
// called while workers are quiescent.
func (b *EpochBoard) EnterGroup() { b.deferSeal = true }

// LeaveGroup reverts EnterGroup.
func (b *EpochBoard) LeaveGroup() { b.deferSeal = false }

// enlist assigns the publishing record its virtual time's epoch and stores
// the record's flush obligations for the seal. The span slices are copied.
//
// A publisher whose clock lags the sealed marker (its own epoch already
// sealed) is handled per mode. Free-running workers future-date the record
// into the first unsealed epoch: drifted clocks keep coalescing into shared
// epochs, and nothing ever stalls on the future boundary because a
// free-running reclaimer seals on the spot. In deterministic group mode a
// future-dated epoch would pin the laggard's slot reclaims to the bounded
// timeout — the fastest clock in the system — so enlist instead returns 0
// and records nothing: the caller drains the record per-commit, keeping
// laggards (rare there; round barriers hold clocks together) independent of
// the leaders' clocks.
func (b *EpochBoard) enlist(clk *sim.Clock, recSpans, dataSpans []pmem.Span) uint64 {
	v := clk.Nanos()
	b.mu.Lock()
	id := b.epochOf(v)
	if id <= b.marker {
		if b.deferSeal {
			b.mu.Unlock()
			return 0
		}
		id = b.marker + 1
	}
	p := b.pendingFor(id)
	if len(p.pubV) == 0 {
		p.firstV = v
	}
	p.pubV = append(p.pubV, v)
	p.recSpans = append(p.recSpans, recSpans...)
	p.dataSpans = append(p.dataSpans, dataSpans...)
	b.records++
	b.mu.Unlock()
	return id
}

// enlistData adds deferred tuple-flush spans to an already-published
// record's epoch. If the epoch sealed in the meantime (another worker's
// virtual time crossed its boundary while this publisher was applying heap
// writes), the spans are flushed directly — they were due at that seal, and
// re-opening a sealed id would regress the marker.
func (b *EpochBoard) enlistData(clk *sim.Clock, epoch uint64, spans []pmem.Span) {
	if len(spans) == 0 {
		return
	}
	b.mu.Lock()
	if epoch <= b.marker {
		b.space.CLWBTrain(clk, spans)
		b.mu.Unlock()
		return
	}
	p := b.pendingFor(epoch)
	p.dataSpans = append(p.dataSpans, spans...)
	b.mu.Unlock()
}

// pendingFor returns (creating if needed) the open epoch with the given id,
// keeping b.pending sorted ascending. Caller holds b.mu.
func (b *EpochBoard) pendingFor(id uint64) *pendingEpoch {
	for i := len(b.pending) - 1; i >= 0; i-- {
		if b.pending[i].id == id {
			return b.pending[i]
		}
		if b.pending[i].id < id {
			break
		}
	}
	p := &pendingEpoch{id: id}
	b.pending = append(b.pending, p)
	for i := len(b.pending) - 1; i > 0 && b.pending[i-1].id > id; i-- {
		b.pending[i], b.pending[i-1] = b.pending[i-1], b.pending[i]
	}
	return p
}

// sealExpired seals, in ascending id order, every open epoch whose boundary
// lies behind the caller's virtual time — the lazy leader step run by each
// publisher after it enlists. The pending list is read only under the lock:
// other workers enlist into it and reclaim from it concurrently.
func (b *EpochBoard) sealExpired(clk *sim.Clock, pr *obs.Probe) {
	b.mu.Lock()
	b.sealUpToLocked(clk, pr, b.epochOf(clk.Nanos())-1)
	b.mu.Unlock()
}

// SealAll drains every open epoch (clean shutdown, quiesce points, the end
// of a measured benchmark phase).
func (b *EpochBoard) SealAll(clk *sim.Clock, pr *obs.Probe) {
	b.mu.Lock()
	b.sealUpToLocked(clk, pr, ^uint64(0))
	b.mu.Unlock()
}

// reclaimWait resolves the group-commit slot-reclaim hazard: the calling
// worker needs to reclaim a log slot whose record belongs to epoch id, which
// is not sealed yet — overwriting it before the seal would void the epoch's
// durability. The reclaimer becomes the epoch's leader and seals through id
// on the spot: sealing early is always permitted (the boundary bounds an
// epoch's lifetime from above) and strictly better than stalling. In
// deterministic group mode worker-side sealing would race the round barrier,
// so the worker instead advances to the epoch boundary — the bounded
// timeout — and its own commit tail, then past the boundary, seals the epoch
// in canonical order (sealExpired). Returns the virtual nanoseconds the
// reclaim cost; the caller attributes them to the group-wait phase.
func (b *EpochBoard) reclaimWait(clk *sim.Clock, pr *obs.Probe, id uint64) uint64 {
	b.mu.Lock()
	if id <= b.marker {
		b.mu.Unlock()
		return 0
	}
	start := clk.Nanos()
	b.forcedSeals++
	if b.deferSeal {
		if bound := id * b.epochNanos; bound > start {
			clk.Advance(bound - start)
		}
	} else {
		b.sealUpToLocked(clk, pr, id)
	}
	waited := clk.Nanos() - start
	b.forcedWaitNanos += waited
	b.mu.Unlock()
	return waited
}

// sealUpToLocked seals every open epoch with id <= upTo, ascending. Caller
// holds b.mu.
func (b *EpochBoard) sealUpToLocked(clk *sim.Clock, pr *obs.Probe, upTo uint64) {
	n := 0
	for n < len(b.pending) && b.pending[n].id <= upTo {
		b.sealOneLocked(clk, pr, b.pending[n])
		n++
	}
	if n > 0 {
		b.pending = append(b.pending[:0], b.pending[n:]...)
	}
}

// sealOneLocked is the epoch drain itself. Order matters for crash
// atomicity: record trains, fence, marker publish, fence, data trains,
// fence. Once the marker covers the epoch, every record needed to replay it
// is durable; the data trains that follow are then recoverable even when the
// crash interrupts them mid-train.
func (b *EpochBoard) sealOneLocked(clk *sim.Clock, pr *obs.Probe, p *pendingEpoch) {
	startV := clk.Nanos()
	if len(p.recSpans) > 0 {
		b.space.CLWBTrain(clk, p.recSpans)
	}
	b.space.SFence(clk)
	b.space.WriteU64(clk, b.markerOff, p.id)
	b.space.CLWB(clk, b.markerOff, 8)
	b.space.SFence(clk)
	if len(p.dataSpans) > 0 {
		b.space.CLWBTrain(clk, p.dataSpans)
		b.space.SFence(clk)
	}
	b.marker = p.id

	b.sealed++
	b.trainSpans += uint64(len(p.recSpans) + len(p.dataSpans))
	b.sizeHist.Observe(uint64(len(p.pubV)))
	sealV := clk.Nanos()
	for _, v := range p.pubV {
		// Publish times come from other workers' clocks; free-running clocks
		// drift apart, so a seal can sit "before" a publish. Clamp to zero.
		if sealV > v {
			b.lagHist.Observe(sealV - v)
		} else {
			b.lagHist.Observe(0)
		}
	}
	pr.EpochSeal(startV, sealV, p.id, uint64(len(p.pubV)))
}

// Stats snapshots the board's observability gauges.
func (b *EpochBoard) Stats() obs.EpochStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return obs.EpochStats{
		Sealed:          b.sealed,
		Pending:         uint64(len(b.pending)),
		Records:         b.records,
		TrainSpans:      b.trainSpans,
		ForcedSeals:     b.forcedSeals,
		ForcedWaitNanos: b.forcedWaitNanos,
		EpochSize:       b.sizeHist.Dump(),
		DurableLag:      b.lagHist.Dump(),
	}
}

// ResetStats zeroes the board's gauges (between benchmark phases); open
// epochs and the marker are untouched.
func (b *EpochBoard) ResetStats() {
	b.mu.Lock()
	b.sealed, b.records, b.trainSpans = 0, 0, 0
	b.forcedSeals, b.forcedWaitNanos = 0, 0
	b.sizeHist.Reset()
	b.lagHist.Reset()
	b.mu.Unlock()
}
