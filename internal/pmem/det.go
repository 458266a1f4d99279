package pmem

import "falcon/internal/sim"

// Deterministic group mode (worker-parallel cells).
//
// In normal mode a cell's workers share one simulated cache (and, on NVM, one
// XPBuffer); the shared hit/miss/LRU state makes virtual results depend on the
// host's goroutine interleaving, which is why multi-worker cells were only
// repeatable under a fixed schedule. Group mode removes every cross-worker
// data dependency from the hot path:
//
//   - Each worker gets a private, *dataless* partition — 1/Nth of the shared
//     cache, and on NVM of the XPBuffer — used purely for virtual-time
//     charging: hits, misses, evictions and media costs are all still
//     modelled, but line payloads are never stored.
//   - The space's device holds the authoritative bytes. Reads copy straight
//     from it (RawRead, free of charge — the timing walk already charged the
//     access); writes go straight to it (RawWrite). The engine's scheduler
//     (sim.Group) guarantees writes to shared locations happen only at round
//     barriers, so direct device access is race-free.
//
// Group mode is entered per space, NVM and DRAM alike, and the partitions are
// built by the split function the space was made with, so their geometry is
// fixed at construction. The partition is a different simulated machine than
// the shared-cache configuration (private slices instead of one contended
// cache), so group mode is opt-in per run; within group mode, results are
// byte-identical for any GOMAXPROCS and any host schedule.

// EnterGroup switches the space into deterministic group mode for the given
// worker count. The caller must be quiescent. Dirty shared-cache state is
// flushed to the device first (making it authoritative), then the shared
// cache is invalidated so it cannot serve stale lines after the group's
// direct device writes. The partitions inherit the shared cache's write-back
// hook.
func (s *MemSpace) EnterGroup(workers int) {
	workers = max(workers, 1)
	s.cache.FlushAll(sim.NewClock())
	s.cache.invalidateAll()
	parts := make([]*Cache, workers)
	for w := range parts {
		parts[w] = s.split(workers, true)
		parts[w].setHook(s.cache.hook)
	}
	s.parts = parts
}

// LeaveGroup returns the space to shared-cache mode. The shared cache starts
// cold (it was invalidated on entry), exactly like a freshly built space over
// the same device image.
func (s *MemSpace) LeaveGroup() { s.parts = nil }

// InGroup reports whether deterministic group mode is active.
func (s *MemSpace) InGroup() bool { return s.parts != nil }
