package pmem

import "falcon/internal/sim"

// Deterministic group mode (worker-parallel cells).
//
// In normal mode a cell's workers share one simulated cache and XPBuffer;
// the shared hit/miss/LRU state makes virtual results depend on the host's
// goroutine interleaving, which is why multi-worker cells were only
// repeatable under a fixed schedule. Group mode removes every cross-worker
// data dependency from the hot path:
//
//   - Each worker gets a private, *dataless* cache + XPBuffer partition
//     (1/Nth of the shared capacity) used purely for virtual-time charging:
//     hits, misses, evictions and media costs are all still modelled, but
//     line payloads are never stored.
//   - The device array holds the authoritative bytes. Reads copy straight
//     from it (RawRead, free of charge — the timing walk already charged the
//     access); writes go straight to it (RawWrite). The engine's scheduler
//     (sim.Group) guarantees writes to shared locations happen only at round
//     barriers, so direct device access is race-free.
//
// The partition is a different simulated machine than the shared-cache
// configuration (private slices instead of one contended cache), so group
// mode is opt-in per run; within group mode, results are byte-identical for
// any GOMAXPROCS and any host schedule.
type detPartition struct {
	caches []*Cache
}

// cacheFor routes by the clock's shard id — the same per-worker routing the
// sharded stats use. Anonymous clocks (setup, recovery) share partition 0.
func (p *detPartition) cacheFor(clk *sim.Clock) *Cache {
	s := clk.ShardID()
	if s >= uint64(len(p.caches)) {
		s = 0
	}
	return p.caches[s]
}

// EnterGroup switches the system's space into deterministic group mode for
// the given worker count. The caller must be quiescent. Dirty shared-cache
// state is flushed to the device first (making it authoritative), then the
// shared cache is invalidated so it cannot serve stale lines after the
// group's direct device writes.
func (s *System) EnterGroup(workers int) {
	if workers < 1 {
		workers = 1
	}
	clk := sim.NewClock()
	s.Cache.FlushAll(clk)
	s.Cache.invalidateAll()
	banks := s.cfg.XPBanks / workers
	if banks < 1 {
		banks = 1
	}
	caches := make([]*Cache, workers)
	for w := range caches {
		xpb := NewXPBuffer(s.Dev, s.cfg.XPBufferBytes/workers, banks, s.cfg.Cost, true)
		c := newCache(xpb, &s.Dev.stats, s.cfg.Mode, s.cfg.CacheBytes/workers,
			s.cfg.CacheWays, s.Dev.Size(), s.cfg.Cost, true)
		c.setHook(s.Cache.hook)
		caches[w] = c
	}
	s.Space.det = &detPartition{caches: caches}
}

// LeaveGroup returns the space to shared-cache mode. The shared cache starts
// cold (it was invalidated on entry), exactly like a freshly built system
// over the same device image.
func (s *System) LeaveGroup() { s.Space.det = nil }

// InGroup reports whether deterministic group mode is active.
func (s *System) InGroup() bool { return s.Space.det != nil }

// dramTimingBackend is the level beneath a group-mode DRAM partition cache:
// it charges DRAM latencies and carries no data (the DRAMSpace's flat array
// is accessed directly by the space).
type dramTimingBackend struct {
	cost sim.CostModel
}

func (d *dramTimingBackend) writeBackLine(clk *sim.Clock, lineAddr uint64, data *[LineSize]byte) {
	clk.Advance(d.cost.DRAMNextLine)
}

func (d *dramTimingBackend) fillLine(clk *sim.Clock, lineAddr uint64, dst *[LineSize]byte) {
	clk.Advance(d.cost.DRAMFirstLine)
}

func (d *dramTimingBackend) drain(clk *sim.Clock) {}

// EnterGroup switches the DRAM space into deterministic group mode: private
// dataless timing caches per worker over the shared flat array. See
// System.EnterGroup for the contract.
func (s *DRAMSpace) EnterGroup(workers int, cacheBytes, ways int, cost sim.CostModel) {
	if workers < 1 {
		workers = 1
	}
	clk := sim.NewClock()
	s.cache.FlushAll(clk) // push dirty line payloads into the flat array
	s.cache.invalidateAll()
	back := &dramTimingBackend{cost: cost}
	caches := make([]*Cache, workers)
	for w := range caches {
		caches[w] = newCache(back, s.cache.stats, ADR, cacheBytes/workers, ways, s.Size(), cost, true)
	}
	s.det = &detPartition{caches: caches}
}

// LeaveGroup returns the DRAM space to shared-cache mode (cold cache).
func (s *DRAMSpace) LeaveGroup() { s.det = nil }
