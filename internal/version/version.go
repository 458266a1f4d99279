// Package version implements the in-DRAM version heap used by Falcon's MVCC
// modes (paper §5.2.3, Figure 6). Old tuple versions are volatile by design:
// they only serve concurrent readers and are rebuilt as empty after a crash,
// which is what makes Falcon's recovery independent of MVCC state.
//
// Each tuple slot has a version-chain head; chains are ordered newest-first.
// A version carries the interval [BeginTS, EndTS) during which it was the
// visible version. Per-thread version queues (ordered by EndTS, because a
// thread's TIDs are monotone) make garbage collection a local, amortized
// operation: once EndTS is below every running transaction's TID, nobody can
// reach the version and it is recycled.
package version

import (
	"sync/atomic"

	"falcon/internal/sim"
)

// Version is one old tuple version in DRAM.
type Version struct {
	// BeginTS is the writer timestamp the tuple had before it was
	// overwritten; the version is visible to snapshots with
	// BeginTS <= snapshot < EndTS.
	BeginTS uint64
	// EndTS is the TID of the transaction that superseded this version.
	EndTS uint64
	// prev links to the next-older version; it is atomic because GC
	// truncates chains concurrently with readers.
	prev atomic.Pointer[Version]
	// Data is the payload as of [BeginTS, EndTS); immutable after Publish.
	// It is nil for slot-reference versions.
	Data []byte
	// SlotRef, when non-zero, identifies the NVM heap slot (slot+1) that
	// still holds this version's payload — the out-of-place representation,
	// where superseded versions stay in the tuple heap until recycled.
	SlotRef uint64
}

// Prev returns the next-older version, or nil.
func (v *Version) Prev() *Version { return v.prev.Load() }

// Store manages version chains for one tuple heap.
type Store struct {
	heads []atomic.Pointer[Version]

	queues []queue // one per worker thread
	// Threshold is the queue length above which a worker attempts GC.
	Threshold int
}

type queue struct {
	entries []queued
	_       [4]uint64 // avoid false sharing between worker queues
}

type queued struct {
	slot uint64
	v    *Version
}

// NewStore creates chains for nslots tuples and nthreads worker queues.
func NewStore(nslots uint64, nthreads int) *Store {
	return &Store{
		heads:     make([]atomic.Pointer[Version], nslots),
		queues:    make([]queue, nthreads),
		Threshold: 64,
	}
}

// Publish records that thread's transaction tid overwrote slot, whose prior
// payload was data with writer timestamp beginTS. The old payload is copied
// into DRAM, linked at the head of the chain, and enqueued for GC.
func (s *Store) Publish(clk *sim.Clock, thread int, slot uint64, beginTS, tid uint64, data []byte) {
	v := &Version{BeginTS: beginTS, EndTS: tid, Data: append([]byte(nil), data...)}
	clk.Advance(sim.DRAMCopy(len(data)))
	head := &s.heads[slot]
	for {
		old := head.Load()
		v.prev.Store(old)
		if head.CompareAndSwap(old, v) {
			break
		}
	}
	q := &s.queues[thread]
	q.entries = append(q.entries, queued{slot: slot, v: v})
}

// PublishRef records that thread's transaction tid superseded the tuple
// version living in heap slot oldSlot (writer timestamp beginTS) with a new
// version at newSlot. The old version's payload stays in NVM; the chain
// entry only references it. The chain migrates from oldSlot's head to
// newSlot's head, since readers discover chains through the index, which now
// points at newSlot.
func (s *Store) PublishRef(clk *sim.Clock, thread int, newSlot uint64, beginTS, tid, oldSlot uint64) {
	v := &Version{BeginTS: beginTS, EndTS: tid, SlotRef: oldSlot + 1}
	clk.Advance(sim.DRAMFirstLine)
	v.prev.Store(s.heads[oldSlot].Load())
	s.heads[oldSlot].Store(nil)
	s.heads[newSlot].Store(v)
	q := &s.queues[thread]
	q.entries = append(q.entries, queued{slot: newSlot, v: v})
}

// ReadVisible walks slot's chain for the newest version visible to a
// snapshot at ts, i.e. the newest version with BeginTS <= ts. It returns nil
// when no old version qualifies — the caller must then read the in-NVM
// tuple (which is correct exactly when the tuple's current writer timestamp
// is <= ts; the caller checks that, since the tuple is NVM-side state).
func (s *Store) ReadVisible(clk *sim.Clock, slot uint64, ts uint64) *Version {
	v := s.heads[slot].Load()
	for v != nil {
		clk.Advance(sim.DRAMFirstLine)
		if v.BeginTS <= ts {
			if ts < v.EndTS {
				clk.Advance(sim.DRAMCopy(len(v.Data)))
				return v
			}
			// ts >= EndTS: the overwriting transaction is within the
			// snapshot, so a newer version (or the NVM tuple) applies.
			return nil
		}
		v = v.Prev()
	}
	return nil
}

// ChainLen reports the current chain length for slot (diagnostics, tests).
func (s *Store) ChainLen(slot uint64) int {
	n := 0
	for v := s.heads[slot].Load(); v != nil; v = v.Prev() {
		n++
	}
	return n
}

// QueueLen returns the thread's pending-GC queue length.
func (s *Store) QueueLen(thread int) int { return len(s.queues[thread].entries) }

// MaybeGC runs garbage collection for thread when its queue exceeds
// Threshold. minActive is the smallest TID of any running transaction
// (math.MaxUint64 when none). It returns the number of versions recycled.
func (s *Store) MaybeGC(clk *sim.Clock, thread int, minActive uint64) int {
	q := &s.queues[thread]
	if len(q.entries) <= s.Threshold {
		return 0
	}
	return s.gc(clk, q, minActive)
}

// ForceGC recycles everything reclaimable in the thread's queue regardless
// of the threshold.
func (s *Store) ForceGC(clk *sim.Clock, thread int, minActive uint64) int {
	return s.gc(clk, &s.queues[thread], minActive)
}

func (s *Store) gc(clk *sim.Clock, q *queue, minActive uint64) int {
	// Entries are EndTS-ordered (a thread's TIDs are monotone), so a prefix
	// is reclaimable.
	i := 0
	for i < len(q.entries) && q.entries[i].v.EndTS < minActive {
		i++
	}
	if i == 0 {
		return 0
	}
	for _, e := range q.entries[:i] {
		s.unlink(clk, e.slot, e.v)
	}
	rest := copy(q.entries, q.entries[i:])
	q.entries = q.entries[:rest]
	return i
}

// unlink removes v from slot's chain. Versions older than a reclaimable
// version are also unreachable (the chain is newest-first and every newer
// version pins only itself), so truncating at v is safe.
func (s *Store) unlink(clk *sim.Clock, slot uint64, v *Version) {
	clk.Advance(sim.DRAMFirstLine)
	head := &s.heads[slot]
	if head.CompareAndSwap(v, nil) {
		return
	}
	for cur := head.Load(); cur != nil; cur = cur.Prev() {
		if cur.Prev() == v {
			cur.prev.Store(nil) // truncate: v and everything older is dead
			return
		}
	}
}

// Reset drops all chains and queues (post-crash: DRAM contents are gone).
func (s *Store) Reset() {
	for i := range s.heads {
		s.heads[i].Store(nil)
	}
	for i := range s.queues {
		s.queues[i].entries = nil
	}
}
