// Package sim provides the virtual-time framework used by the Falcon
// reproduction.
//
// The paper's evaluation ran on a 48-core machine with real Intel Optane
// persistent memory; this reproduction runs on commodity hardware with no
// persistent memory and possibly a single core. Wall-clock measurements would
// therefore be meaningless. Instead, every simulated hardware event (cache
// hit, cache-line eviction, NVM media read/write, fence, ...) charges a
// calibrated number of virtual nanoseconds to the worker that caused it.
// Throughput is computed from virtual time, so "48 workers" behaves like 48
// hardware threads regardless of the host's core count.
//
// Contention remains meaningful under virtual time because every concurrency
// control algorithm in this system uses a no-wait/abort-retry policy: conflict
// cost manifests as *retried work*, which is charged to the clocks like any
// other work. Cross-thread cache and write-buffer interference is captured
// functionally, because the simulated cache and XPBuffer state is shared.
package sim

// Clock is a per-worker virtual clock. It is owned by exactly one worker
// goroutine and therefore needs no synchronization for Advance; Nanos may be
// read by other goroutines only after the worker has stopped (or through
// Snapshot, which callers must externally order).
type Clock struct {
	nanos uint64
	// shard is the owning worker's id, used by per-worker sharded counters
	// (pmem.Stats) to pick an uncontended counter block. Anonymous clocks
	// (tests, setup, crash flushes) share shard 0.
	shard uint64
	// pad keeps two clocks from sharing a cache line when allocated in a
	// slice; clocks are updated on every simulated event, so false sharing
	// between workers would distort host-side performance.
	_ [6]uint64
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// NewWorkerClock returns a clock at virtual time zero owned by worker w.
// The worker id doubles as the shard hint for per-worker sharded counters.
func NewWorkerClock(w int) *Clock {
	if w < 0 {
		w = 0
	}
	return &Clock{shard: uint64(w)}
}

// ShardID returns the owning worker's shard hint (0 for anonymous or nil
// clocks).
func (c *Clock) ShardID() uint64 {
	if c == nil {
		return 0
	}
	return c.shard
}

// Advance adds ns virtual nanoseconds to the clock.
func (c *Clock) Advance(ns uint64) {
	if c == nil {
		return
	}
	c.nanos += ns
}

// Nanos returns the current virtual time in nanoseconds.
func (c *Clock) Nanos() uint64 {
	if c == nil {
		return 0
	}
	return c.nanos
}

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.nanos = 0 }

// MaxNanos returns the largest virtual time among the clocks. When a group of
// workers each execute a fixed share of a workload, the slowest clock is the
// virtual completion time of the run.
func MaxNanos(clocks []*Clock) uint64 {
	var max uint64
	for _, c := range clocks {
		if n := c.Nanos(); n > max {
			max = n
		}
	}
	return max
}
