// Package core implements the Falcon OLTP storage engine and the baseline
// engines the paper compares against (Inp, Outp, ZenS and the ablation
// variants), all as configurations of one code base — mirroring the paper's
// §6.2.1, where every engine shares the same tuple-heap design.
package core

import (
	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/wal"
)

// UpdateScheme selects how committed writes reach the tuple heap.
type UpdateScheme uint8

const (
	// InPlace records redo logs, then overwrites tuples in place (§2.1.1).
	InPlace UpdateScheme = iota
	// OutOfPlace writes each update as a new tuple version and repoints the
	// index (§2.1.2, "log-free").
	OutOfPlace
)

func (u UpdateScheme) String() string {
	if u == OutOfPlace {
		return "out-of-place"
	}
	return "in-place"
}

// FlushPolicy selects the clwb strategy for tuple data (§4.4).
type FlushPolicy uint8

const (
	// FlushAll issues hinted flushes for every touched tuple.
	FlushAll FlushPolicy = iota
	// FlushNone never issues clwb (relies purely on eADR).
	FlushNone
	// FlushSelective issues hinted flushes except for tuples tracked hot —
	// Falcon's selective data flush.
	FlushSelective
)

func (f FlushPolicy) String() string {
	switch f {
	case FlushNone:
		return "none"
	case FlushSelective:
		return "selective"
	default:
		return "all"
	}
}

// IndexPlacement selects where indexes live.
type IndexPlacement uint8

const (
	// IndexNVM keeps indexes on the persistent space (instant recovery).
	IndexNVM IndexPlacement = iota
	// IndexDRAM keeps indexes in volatile memory (faster probes; rebuilt by
	// a heap scan during recovery).
	IndexDRAM
)

func (p IndexPlacement) String() string {
	if p == IndexDRAM {
		return "DRAM"
	}
	return "NVM"
}

// LogScheme selects the redo-log behaviour of in-place engines.
type LogScheme uint8

const (
	// SmallLogWindow is Falcon's design: tiny per-thread circular windows
	// (2–3 transactions), never flushed, kept cache-resident (§4.3).
	SmallLogWindow LogScheme = iota
	// FlushedLog is the classic design: a large per-thread log region whose
	// records are clwb'd at commit (Inp). Sequential flushes merge into
	// full-block media writes.
	FlushedLog
	// UnflushedLog is a large per-thread log region with the clwbs removed
	// (Inp (No Flush)): correct under eADR, but the cold log lines are
	// eventually evicted one by one, causing amplified partial-block writes.
	UnflushedLog
)

func (l LogScheme) String() string {
	switch l {
	case FlushedLog:
		return "flushed"
	case UnflushedLog:
		return "unflushed"
	default:
		return "small-window"
	}
}

// largeLogSlots is the slot count used by FlushedLog/UnflushedLog regions:
// big enough that slots are not promptly reused, so unflushed records cool
// down and get evicted — the behaviour of a conventional log.
const largeLogSlots = 64

// Config assembles an engine.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Threads is the number of worker threads (TPC-C/YCSB terminals).
	Threads int
	// CC selects the concurrency-control algorithm.
	CC cc.Algo
	// Update selects in-place or out-of-place tuple updates.
	Update UpdateScheme
	// Log selects the redo-log scheme (in-place engines only).
	Log LogScheme
	// Flush selects the tuple-data clwb policy.
	Flush FlushPolicy
	// Index selects index placement.
	Index IndexPlacement
	// HotTupleCap is the per-thread hot-tuple LRU capacity used by
	// FlushSelective.
	HotTupleCap int
	// TupleCacheBytes enables the ZenS-style DRAM tuple cache when > 0.
	TupleCacheBytes int
	// OwnershipCopy charges Zen's copy-and-invalidate when a thread updates
	// a tuple version owned by another thread (§6.2.3 Zipfian discussion).
	OwnershipCopy bool
	// GroupCommit enables leader-based group commit on in-place engines:
	// commits publish into durability epochs and the per-commit drain moves
	// to the epoch seal's coalesced flush trains (ignored for OutOfPlace,
	// whose commit marker is its own durable point).
	GroupCommit bool
	// Window configures the per-thread log window (Slots is derived from
	// Log when zero).
	Window wal.Config
	// DRAMBytes sizes the volatile space used for DRAM indexes.
	DRAMBytes uint64
}

// versionHeadroom multiplies out-of-place heap capacity to leave room for
// not-yet-recycled versions.
const versionHeadroom = 4

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.HotTupleCap == 0 {
		c.HotTupleCap = 256
	}
	if c.Window.Slots == 0 {
		if c.Log == SmallLogWindow {
			c.Window.Slots = 3
		} else {
			c.Window.Slots = largeLogSlots
		}
	}
	if c.Window.SlotBytes == 0 {
		c.Window.SlotBytes = 4096
	}
	if c.Window.OverflowBytes == 0 {
		c.Window.OverflowBytes = 64 << 10
	}
	c.Window.Flush = c.Log == FlushedLog
	if c.Update == OutOfPlace {
		c.GroupCommit = false
	}
	if c.DRAMBytes == 0 {
		c.DRAMBytes = 512 << 20
	}
	return c
}

// Workers is the worker-thread count an engine of this configuration runs.
func (c Config) Workers() int { return c.withDefaults().Threads }

// LogWindow is the per-thread log window an engine of this configuration is
// built with: Window with the scheme-dependent defaults filled in.
func (c Config) LogWindow() wal.Config { return c.withDefaults().Window }

// HeapSlots is the slot count of the heap behind a table of the given
// capacity: out-of-place engines add room for stale versions.
func (c Config) HeapSlots(capacity uint64) uint64 {
	c = c.withDefaults()
	if c.Update != OutOfPlace {
		return capacity
	}
	// Hot tiny tables (TPC-C warehouse/district) churn versions far faster
	// than proportional headroom suggests; guarantee a working set of stale
	// versions per thread.
	return max(capacity*versionHeadroom, uint64(c.Threads)*128)
}

// IndexKeys is the key count an index of a table of the given capacity is
// built for: a tenth above the table's live tuples (stale versions leave the
// index at update time), and for a B-tree no fewer than the heap has slots.
// An out-of-place heap whose versions are collected promptly holds more live
// tuples than the table's capacity, and an insert can be refused for a full
// heap but not for a full index (the index is written after the commit
// point), so the tree is sized never to fill first.
func (c Config) IndexKeys(kind index.Kind, capacity uint64) uint64 {
	keys := capacity * 11 / 10
	if kind == index.BTree {
		keys = max(keys, c.HeapSlots(capacity))
	}
	return keys
}

// ---- engine presets (paper Table 1 and Figure 10) ----

// FalconConfig is the full Falcon design: in-place updates, small log
// window, selective data flush, NVM indexes.
func FalconConfig() Config {
	return Config{Name: "Falcon", Update: InPlace, Log: SmallLogWindow,
		Flush: FlushSelective, Index: IndexNVM}
}

// FalconNoFlushConfig is Falcon with all clwb instructions removed.
func FalconNoFlushConfig() Config {
	c := FalconConfig()
	c.Name = "Falcon (No Flush)"
	c.Flush = FlushNone
	return c
}

// FalconAllFlushConfig is Falcon without hot-tuple tracking: every touched
// tuple is flushed.
func FalconAllFlushConfig() Config {
	c := FalconConfig()
	c.Name = "Falcon (All Flush)"
	c.Flush = FlushAll
	return c
}

// FalconDRAMIndexConfig is Falcon with indexes in DRAM instead of NVM.
func FalconDRAMIndexConfig() Config {
	c := FalconConfig()
	c.Name = "Falcon (DRAM Index)"
	c.Index = IndexDRAM
	return c
}

// InpConfig is the pure in-place baseline: flushed redo logs and hinted
// flushes for all data.
func InpConfig() Config {
	return Config{Name: "Inp", Update: InPlace, Log: FlushedLog,
		Flush: FlushAll, Index: IndexNVM}
}

// InpNoFlushConfig is Inp with every clwb removed (Figure 10's baseline).
func InpNoFlushConfig() Config {
	return Config{Name: "Inp (No Flush)", Update: InPlace, Log: UnflushedLog,
		Flush: FlushNone, Index: IndexNVM}
}

// InpSmallLogWindowConfig is Inp plus the small-log-window optimization.
func InpSmallLogWindowConfig() Config {
	return Config{Name: "Inp (Small Log Window)", Update: InPlace, Log: SmallLogWindow,
		Flush: FlushAll, Index: IndexNVM}
}

// InpHotTupleTrackingConfig is Inp plus the hot-tuple-tracking optimization.
func InpHotTupleTrackingConfig() Config {
	return Config{Name: "Inp (Hot Tuple Tracking)", Update: InPlace, Log: FlushedLog,
		Flush: FlushSelective, Index: IndexNVM}
}

// OutpConfig is the pure out-of-place baseline with NVM indexes.
func OutpConfig() Config {
	return Config{Name: "Outp", Update: OutOfPlace, Flush: FlushAll, Index: IndexNVM}
}

// ZenSConfig re-implements Zen's storage engine: out-of-place updates, DRAM
// index, DRAM tuple cache, thread-ownership copies.
func ZenSConfig() Config {
	return Config{Name: "ZenS", Update: OutOfPlace, Flush: FlushAll,
		Index: IndexDRAM, TupleCacheBytes: 64 << 20, OwnershipCopy: true}
}

// ZenSNoFlushConfig is ZenS with all flush instructions removed.
func ZenSNoFlushConfig() Config {
	c := ZenSConfig()
	c.Name = "ZenS (No Flush)"
	c.Flush = FlushNone
	return c
}

// TableSpec declares one table at engine creation; it is persisted in the
// catalog for recovery.
type TableSpec struct {
	// Name identifies the table.
	Name string
	// Schema is the fixed-width tuple layout.
	Schema *layout.Schema
	// Capacity is the maximum number of live tuples. Out-of-place engines
	// reserve four times as many slots, for stale versions (HeapSlots).
	Capacity uint64
	// KeyCol is the schema column (Uint64) holding the primary index key;
	// recovery uses it to rebuild DRAM indexes from payloads.
	KeyCol int
	// IndexKind selects hash (point lookups) or btree (ordered scans) for
	// the primary index.
	IndexKind index.Kind
	// SecondaryCol, when > 0, adds a secondary btree on that Uint64
	// column (column 0 — conventionally the primary key — cannot carry a
	// secondary). Secondary keys must be unique: pack a row uniquifier into
	// the low bits. Zero disables.
	SecondaryCol int
}
