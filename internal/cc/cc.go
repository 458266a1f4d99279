// Package cc implements the concurrency-control algorithms Falcon supports
// (paper §5.2.1): two-phase locking with a no-wait policy, timestamp
// ordering, optimistic concurrency control, and the multi-version variants
// MV2PL, MVTO and MVOCC.
//
// Every algorithm here resolves conflicts by abort-and-retry rather than
// blocking. That matters for the virtual-time methodology: contention cost
// appears as retried (charged) work, never as an uncharged lock wait.
//
// The algorithms operate on the 8-byte shadow metadata word of each tuple
// slot (heap.Meta). Encodings:
//
//	2PL:    bit 63 = writer lock · bits 48..62 = reader count · bits 0..47 = writer TID
//	TO/OCC: bit 63 = writer lock · bits 0..62 = writer TID (the "version")
//
// The durable copy of the writer timestamp lives in the tuple header in NVM
// and is maintained by the engine at apply time; the shadow word is the
// working copy that supports atomic CAS.
package cc

import (
	"math"
	"sync/atomic"
)

// Algo selects a concurrency-control algorithm.
type Algo uint8

const (
	// TwoPL is two-phase locking with no-wait deadlock avoidance.
	TwoPL Algo = iota
	// TO is timestamp ordering.
	TO
	// OCC is optimistic concurrency control (Silo-style validation).
	OCC
	// MV2PL combines 2PL read-write transactions with snapshot reads.
	MV2PL
	// MVTO combines TO read-write transactions with snapshot reads.
	MVTO
	// MVOCC combines OCC read-write transactions with snapshot reads.
	MVOCC
)

// All enumerates every supported algorithm, in the order the paper's
// Figure 7 reports them.
var All = []Algo{TwoPL, TO, OCC, MV2PL, MVTO, MVOCC}

func (a Algo) String() string {
	switch a {
	case TwoPL:
		return "2PL"
	case TO:
		return "TO"
	case OCC:
		return "OCC"
	case MV2PL:
		return "MV2PL"
	case MVTO:
		return "MVTO"
	case MVOCC:
		return "MVOCC"
	default:
		return "cc?"
	}
}

// MultiVersion reports whether the algorithm keeps old versions for
// non-blocking read-only transactions.
func (a Algo) MultiVersion() bool { return a >= MV2PL }

// Base returns the single-version algorithm driving read-write transactions.
func (a Algo) Base() Algo {
	switch a {
	case MV2PL:
		return TwoPL
	case MVTO:
		return TO
	case MVOCC:
		return OCC
	default:
		return a
	}
}

// Shadow-word layout.
const (
	// LockBit marks a writer holding the tuple.
	LockBit = uint64(1) << 63

	readerShift = 48
	readerOne   = uint64(1) << readerShift
	readerMask  = uint64(0x7FFF) << readerShift
	// WTSMask2PL extracts the writer TID under the 2PL encoding.
	WTSMask2PL = readerOne - 1
	// WTSMaskTO extracts the writer TID under the TO/OCC encoding.
	WTSMaskTO = LockBit - 1
)

// HolderTID extracts the writer TID encoded in a shadow word under the
// algorithm's layout — the conflict observatory uses it to attribute a
// failed lock or version check to the holding transaction. Under 2PL the
// word carries a meaningful writer TID only while write-locked; for an
// unlocked word the returned value is the last writer's timestamp, which is
// still the right attribution for version conflicts.
func HolderTID(a Algo, word uint64) uint64 {
	if a.Base() == TwoPL {
		return word & WTSMask2PL
	}
	return word & WTSMaskTO
}

// TIDWorker recovers the worker thread id from a TID ({seq << 8 | thread},
// see TIDGen).
func TIDWorker(tid uint64) int { return int(tid & 0xFF) }

// TIDGen issues transaction IDs. Following the paper's footnote, a TID is
// {timestamp << 8 | thread_id}: the high bits come from a monotone clock, the
// low byte from the worker thread, so two threads can never draw the same
// TID. This reproduction uses a logical clock rather than clock_gettime — the
// paper itself notes that recovery re-derives a monotone clock from the logs
// when the hardware clock is untrustworthy, which is exactly what Restore
// implements.
type TIDGen struct {
	clock atomic.Uint64
}

// Next returns a fresh TID for thread.
func (g *TIDGen) Next(thread int) uint64 {
	return g.clock.Add(1)<<8 | uint64(thread&0xFF)
}

// Seq returns the current clock value: the sequence part (TID >> 8) of the
// most recently issued TID, 0 if none. Deterministic group mode uses it to
// base virtual-time TID sequences above every previously issued TID.
func (g *TIDGen) Seq() uint64 { return g.clock.Load() }

// Restore fast-forwards the clock so that every future TID exceeds seenTID.
// Recovery calls this with the largest TID found in the logs.
func (g *TIDGen) Restore(seenTID uint64) {
	seq := seenTID >> 8
	for {
		cur := g.clock.Load()
		if cur >= seq || g.clock.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// ActiveSet tracks the TID each worker is currently running, for MVCC
// visibility-horizon and garbage-collection decisions (§5.4).
type ActiveSet struct {
	slots []paddedU64
}

type paddedU64 struct {
	v atomic.Uint64
	_ [7]uint64
}

// NewActiveSet creates a registry for nthreads workers.
func NewActiveSet(nthreads int) *ActiveSet {
	return &ActiveSet{slots: make([]paddedU64, nthreads)}
}

// Set registers thread as running tid. A thread about to draw its TID must
// first Set a lower bound on it (TIDGen.Seq()<<8|0xFF: every later TID is
// larger) and Set the TID itself afterwards; registering only after the draw
// leaves a window in which Min overshoots a TID that already exists.
func (s *ActiveSet) Set(thread int, tid uint64) { s.slots[thread].v.Store(tid) }

// Clear unregisters thread.
func (s *ActiveSet) Clear(thread int) { s.slots[thread].v.Store(0) }

// Min returns the smallest running TID, or math.MaxUint64 when no
// transaction is active. Versions and deleted tuples with timestamps below
// Min are invisible to every current and future transaction.
func (s *ActiveSet) Min() uint64 {
	min := uint64(math.MaxUint64)
	for i := range s.slots {
		if v := s.slots[i].v.Load(); v != 0 && v < min {
			min = v
		}
	}
	return min
}
