package sim

// CostModel holds the virtual-time latency constants, in nanoseconds, charged
// for simulated hardware events. The defaults are calibrated from published
// characterizations of Intel Optane DC Persistent Memory (Yang et al.,
// FAST '20 "An Empirical Guide to the Behavior and Use of Scalable Persistent
// Memory"; Gugnani et al., VLDB '21) and ordinary DDR4 latencies. Absolute
// throughput derived from these constants is plausible but approximate; the
// reproduction claims only relative comparisons between engines.
type CostModel struct {
	// CacheHitLine is charged per 64 B line accessed that hits the simulated
	// CPU cache (load or store).
	CacheHitLine uint64
	// CacheMissLine is the bookkeeping cost of installing a line on a miss,
	// in addition to whatever fill cost applies (XPBufferHit or
	// MediaReadBlock).
	CacheMissLine uint64
	// MediaReadBlock is charged for fetching a 256 B block from the NVM
	// storage media (3D XPoint read latency): once per load miss the
	// XPBuffer cannot serve — the block then sits in the buffer, so its
	// other lines are XPBufferHits — and once per partial-block eviction.
	MediaReadBlock uint64
	// MediaWriteBlock is charged for writing a 256 B block from the XPBuffer
	// to the storage media. A partial-block eviction additionally charges
	// MediaReadBlock (read-modify-write; this is the write amplification the
	// paper is built around).
	MediaWriteBlock uint64
	// XPBufferHit is charged when a load miss is served from the NVM
	// module's internal buffer instead of the media: a line staged by a
	// write-back, or one whose block an earlier load miss read in.
	XPBufferHit uint64
	// LineWriteback is charged for transferring one dirty 64 B line from the
	// CPU cache into the XPBuffer (eviction or clwb write-back).
	LineWriteback uint64
	// ClwbIssue is charged for issuing one clwb instruction. Falcon's hinted
	// flush uses <sfence + clwb*>, i.e. it does not wait for completion, so
	// only the issue cost applies.
	ClwbIssue uint64
	// ClwbTrainNext is charged for each additional line of a hinted multi-line
	// flush train after the first (Space.CLWBTrain): the front end amortizes
	// decode/issue across the adjacent lines of a span, so trailing lines cost
	// a fraction of a standalone ClwbIssue.
	ClwbTrainNext uint64
	// Sfence is charged per sfence instruction.
	Sfence uint64
	// DRAMFirstLine and DRAMNextLine are charged for accesses to simulated
	// DRAM-resident structures (version heap, DRAM indexes, tuple cache,
	// hot-tuple set): the first 64 B line of an access costs DRAMFirstLine
	// and each subsequent contiguous line costs DRAMNextLine (streaming).
	// Structures kept in a DRAM space pay them only on a miss of that
	// space's cache, and CacheHitLine on a hit.
	DRAMFirstLine uint64
	DRAMNextLine  uint64
	// TxnOverhead is the fixed CPU cost per transaction (begin/commit
	// bookkeeping, TID generation).
	TxnOverhead uint64
	// OpOverhead is the fixed CPU cost per tuple operation (call overhead,
	// predicate evaluation).
	OpOverhead uint64
	// AbortOverhead is the extra CPU cost of rolling back an aborted
	// transaction attempt (on top of the work already charged).
	AbortOverhead uint64
}

// DefaultCostModel returns the calibrated latency constants used throughout
// the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
		CacheHitLine:    4,
		CacheMissLine:   10,
		MediaReadBlock:  300,
		MediaWriteBlock: 170,
		XPBufferHit:     90,
		LineWriteback:   10,
		ClwbIssue:       8,
		ClwbTrainNext:   2,
		Sfence:          20,
		DRAMFirstLine:   70,
		DRAMNextLine:    15,
		TxnOverhead:     150,
		OpOverhead:      60,
		AbortOverhead:   120,
	}
}
