package pmem

// FlushKind classifies one write-back reported to the system's hook. The
// kinds mirror the write-back paths of the simulated memory system: explicit
// CLWB, hinted flush trains, cache capacity evictions, and XPBuffer block
// evictions.
type FlushKind uint8

const (
	// FlushClwb is a dirty 64 B line written back by an explicit CLWB.
	FlushClwb FlushKind = iota
	// FlushTrain is a dirty line written back inside a CLWBTrain.
	FlushTrain
	// FlushEvict is a dirty line written back by cache replacement.
	FlushEvict
	// FlushXPFull is a fully populated 256 B XPBuffer block eviction (single
	// media write).
	FlushXPFull
	// FlushXPPartial is a partial block eviction (read-modify-write).
	FlushXPPartial
)

// FlushFn receives every write-back while armed (System.SetHook): the causing
// clock's shard id (= worker id, the routing every sharded accumulator here
// uses), the kind, the line or block address, and the virtual-time window the
// write-back occupied on that clock — an XPBuffer eviction's media access; a
// line write-back is an instant, start == end. pmem sits below obs in the
// import graph, so the hook is a plain function type. It runs under a
// cache-set or buffer-bank spinlock on the goroutine that owns the clock:
// implementations must touch only state private to shard, never allocate and
// never block.
type FlushFn func(shard uint64, kind FlushKind, addr, start, end uint64)

// Banks returns the number of independently locked buffer banks — the set
// count for XPBuffer set-contention accounting.
func (b *XPBuffer) Banks() int { return len(b.banks) }
