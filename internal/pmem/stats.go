package pmem

import (
	"sync/atomic"

	"falcon/internal/sim"
)

// numStatShards is the number of per-worker counter blocks in a Stats. A
// power of two so shard selection is a single mask of the worker's shard id;
// workers beyond the shard count wrap around and share (still correct, the
// counters are atomic).
const numStatShards = 32

// StatShard is one worker's block of simulated-hardware event counters.
// Sharding exists purely for host-side performance: with a single shared
// counter block every worker's stores hit the same few cache lines, and the
// resulting false sharing dominates the simulation's host cost at high
// worker counts. Each worker instead updates its own block (selected by
// sim.Clock.ShardID), and Stats.Snapshot sums the blocks.
//
// The counters are atomics because nothing enforces distinct shard ids —
// anonymous clocks all map to shard 0 — but in the steady state a shard has
// one writer and the atomic adds never contend.
type StatShard struct {
	// MediaWrites counts 256 B block writes to the storage media.
	MediaWrites atomic.Uint64
	// FullBlockWrites counts media writes whose block was fully populated in
	// the XPBuffer (no read-modify-write needed).
	FullBlockWrites atomic.Uint64
	// PartialBlockWrites counts media writes that required a
	// read-modify-write because only part of the block was buffered. These
	// are the amplified writes the paper's hinted flush tries to eliminate;
	// each also counts as a media read (Snapshot.MediaReads).
	PartialBlockWrites atomic.Uint64
	// XPBufferMerges counts 64 B line write-backs that merged into an
	// already-buffered block.
	XPBufferMerges atomic.Uint64
	// XPBufferHits counts load misses served by the XPBuffer.
	XPBufferHits atomic.Uint64
	// XPBufferReadFills counts load misses the XPBuffer could not serve:
	// each reads its 256 B block from the media into a slot (a new one, or
	// the slot already staging the block's writes), making the block's
	// unwritten lines clean buffer hits. Each is a media read
	// (Snapshot.MediaReads).
	XPBufferReadFills atomic.Uint64
	// XPBufferCleanEvictions counts XPBuffer slots dropped with no written
	// line: no media write, unlike every other slot eviction.
	XPBufferCleanEvictions atomic.Uint64
	// CacheHits / CacheMisses count per-line cache accesses.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	// DirtyEvictions counts dirty lines written back due to capacity
	// replacement; CleanEvictions counts replaced lines that cost nothing.
	DirtyEvictions atomic.Uint64
	CleanEvictions atomic.Uint64
	// ClwbWritebacks counts dirty lines written back by explicit CLWB.
	ClwbWritebacks atomic.Uint64
	// BytesStored counts application bytes passed to Write (store
	// granularity, before any amplification).
	BytesStored atomic.Uint64
	// BytesToMedia counts bytes physically written to the media
	// (MediaWrites * BlockSize). BytesToMedia / BytesStored is the write
	// amplification factor.
	BytesToMedia atomic.Uint64
	// CrashFlushedLines counts dirty lines persisted by the eADR crash
	// flush.
	CrashFlushedLines atomic.Uint64
	// CrashDroppedLines counts dirty lines discarded by an ADR crash.
	CrashDroppedLines atomic.Uint64
	// FlushTrains counts hinted multi-line flush trains issued via CLWBTrain;
	// FlushTrainLines counts the lines those trains covered. Lines written
	// back by trains also count in ClwbWritebacks.
	FlushTrains     atomic.Uint64
	FlushTrainLines atomic.Uint64
	// pad rounds the block up to a multiple of the 64 B cache line size
	// (18 counters = 144 B -> 192 B) so adjacent shards never share a line.
	_ [48]byte
}

// addLines adds one call's per-line hit and miss counts. The span walks
// count in locals and add once per call: a locked add per simulated line was
// a measurable slice of a 1 KB tuple access.
func (sh *StatShard) addLines(hits, misses uint64) {
	if hits != 0 {
		sh.CacheHits.Add(hits)
	}
	if misses != 0 {
		sh.CacheMisses.Add(misses)
	}
}

// Stats counts simulated hardware events on an NVM device and its attached
// cache, sharded into per-worker counter blocks. Writers pick their block
// with ShardFor; readers merge all blocks with Snapshot. All counters are
// cumulative and safe for concurrent update.
type Stats struct {
	shards [numStatShards]StatShard
}

// ShardFor returns the counter block for the worker owning clk. Nil and
// anonymous clocks (bulk loads, crash flushes, tests) map to shard 0.
func (s *Stats) ShardFor(clk *sim.Clock) *StatShard {
	return &s.shards[clk.ShardID()&(numStatShards-1)]
}

// Shard returns counter block i (tests and diagnostics).
func (s *Stats) Shard(i int) *StatShard {
	return &s.shards[uint64(i)&(numStatShards-1)]
}

// NumShards returns the number of counter blocks.
func (s *Stats) NumShards() int { return numStatShards }

// Snapshot is a point-in-time copy of Stats, suitable for diffing.
type Snapshot struct {
	// MediaReads counts 256 B block reads from the storage media: the
	// read fills of load misses plus the reads of read-modify-write
	// partial-block evictions. The shards count the two causes; a block
	// read has no counter of its own.
	MediaReads             uint64
	MediaWrites            uint64
	FullBlockWrites        uint64
	PartialBlockWrites     uint64
	XPBufferMerges         uint64
	XPBufferHits           uint64
	XPBufferReadFills      uint64
	XPBufferCleanEvictions uint64
	CacheHits              uint64
	CacheMisses            uint64
	DirtyEvictions         uint64
	CleanEvictions         uint64
	ClwbWritebacks         uint64
	BytesStored            uint64
	BytesToMedia           uint64
	CrashFlushedLines      uint64
	CrashDroppedLines      uint64
	FlushTrains            uint64
	FlushTrainLines        uint64
}

// Snapshot returns the current counter values summed across all shards.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	for i := range s.shards {
		sh := &s.shards[i]
		out.MediaReads += sh.XPBufferReadFills.Load() + sh.PartialBlockWrites.Load()
		out.MediaWrites += sh.MediaWrites.Load()
		out.FullBlockWrites += sh.FullBlockWrites.Load()
		out.PartialBlockWrites += sh.PartialBlockWrites.Load()
		out.XPBufferMerges += sh.XPBufferMerges.Load()
		out.XPBufferHits += sh.XPBufferHits.Load()
		out.XPBufferReadFills += sh.XPBufferReadFills.Load()
		out.XPBufferCleanEvictions += sh.XPBufferCleanEvictions.Load()
		out.CacheHits += sh.CacheHits.Load()
		out.CacheMisses += sh.CacheMisses.Load()
		out.DirtyEvictions += sh.DirtyEvictions.Load()
		out.CleanEvictions += sh.CleanEvictions.Load()
		out.ClwbWritebacks += sh.ClwbWritebacks.Load()
		out.BytesStored += sh.BytesStored.Load()
		out.BytesToMedia += sh.BytesToMedia.Load()
		out.CrashFlushedLines += sh.CrashFlushedLines.Load()
		out.CrashDroppedLines += sh.CrashDroppedLines.Load()
		out.FlushTrains += sh.FlushTrains.Load()
		out.FlushTrainLines += sh.FlushTrainLines.Load()
	}
	return out
}

// Sub returns the element-wise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		MediaReads:             s.MediaReads - o.MediaReads,
		MediaWrites:            s.MediaWrites - o.MediaWrites,
		FullBlockWrites:        s.FullBlockWrites - o.FullBlockWrites,
		PartialBlockWrites:     s.PartialBlockWrites - o.PartialBlockWrites,
		XPBufferMerges:         s.XPBufferMerges - o.XPBufferMerges,
		XPBufferHits:           s.XPBufferHits - o.XPBufferHits,
		XPBufferReadFills:      s.XPBufferReadFills - o.XPBufferReadFills,
		XPBufferCleanEvictions: s.XPBufferCleanEvictions - o.XPBufferCleanEvictions,
		CacheHits:              s.CacheHits - o.CacheHits,
		CacheMisses:            s.CacheMisses - o.CacheMisses,
		DirtyEvictions:         s.DirtyEvictions - o.DirtyEvictions,
		CleanEvictions:         s.CleanEvictions - o.CleanEvictions,
		ClwbWritebacks:         s.ClwbWritebacks - o.ClwbWritebacks,
		BytesStored:            s.BytesStored - o.BytesStored,
		BytesToMedia:           s.BytesToMedia - o.BytesToMedia,
		CrashFlushedLines:      s.CrashFlushedLines - o.CrashFlushedLines,
		CrashDroppedLines:      s.CrashDroppedLines - o.CrashDroppedLines,
		FlushTrains:            s.FlushTrains - o.FlushTrains,
		FlushTrainLines:        s.FlushTrainLines - o.FlushTrainLines,
	}
}

// WriteAmplification returns BytesToMedia / BytesStored, or 0 when nothing
// has been stored.
func (s Snapshot) WriteAmplification() float64 {
	if s.BytesStored == 0 {
		return 0
	}
	return float64(s.BytesToMedia) / float64(s.BytesStored)
}
