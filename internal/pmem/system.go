package pmem

import "falcon/internal/sim"

// Config describes a simulated memory system.
type Config struct {
	// Mode selects eADR (persistent cache) or ADR (volatile cache).
	Mode Mode
	// DeviceBytes is the NVM capacity.
	DeviceBytes uint64
	// CacheBytes is the simulated CPU cache capacity (default 2 MiB).
	CacheBytes int
	// CacheWays is the associativity (default 16).
	CacheWays int
	// XPBufferBytes is the write-combining buffer capacity (default 256 KiB,
	// approximating the aggregate XPBuffer of an interleaved DIMM set).
	XPBufferBytes int
	// XPBanks is the number of independently locked buffer banks
	// (default 16).
	XPBanks int
}

// withDefaults fills zero fields with default values.
func (c Config) withDefaults() Config {
	if c.DeviceBytes == 0 {
		c.DeviceBytes = 64 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 2 << 20
	}
	if c.CacheWays == 0 {
		c.CacheWays = 16
	}
	if c.XPBufferBytes == 0 {
		c.XPBufferBytes = 256 << 10
	}
	if c.XPBanks == 0 {
		c.XPBanks = 16
	}
	return c
}

// System bundles a device, its XPBuffer, the CPU cache and the NVM space —
// one simulated machine. Crash produces the successor System that a restarted
// process would see.
type System struct {
	cfg    Config
	Dev    *Device
	XPB    *XPBuffer
	Cache  *Cache
	Space  *MemSpace
	faults *FaultPlan
}

// NewSystem builds a simulated machine from cfg.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	dev := NewDevice(cfg.DeviceBytes)
	return newSystemOn(cfg, dev)
}

func newSystemOn(cfg Config, dev *Device) *System {
	xpb := NewXPBuffer(dev, cfg.XPBufferBytes, cfg.XPBanks)
	c := newCache(xpb, &dev.stats, cfg.Mode, cfg.CacheBytes, cfg.CacheWays, dev.Size())
	return &System{cfg: cfg, Dev: dev, XPB: xpb, Cache: c, Space: &MemSpace{cache: c, dev: dev, flush: true}}
}

// Config returns the (defaulted) configuration of the system.
func (s *System) Config() Config { return s.cfg }

// SetFaults arms a crash-injection plan on the system's cache and XPBuffer
// (test harnesses only; see FaultPlan for the single-goroutine contract).
// Pass nil to disarm.
func (s *System) SetFaults(p *FaultPlan) {
	s.faults = p
	s.Cache.faults = p
	s.XPB.faults = p
}

// SetHook arms the write-back hook (see FlushFn) on the cache and the
// XPBuffer. Pass nil to disarm: a disarmed system pays one pointer test per
// write-back. Like SetFaults, it must be called while workers are quiescent.
func (s *System) SetHook(fn FlushFn) {
	s.Cache.hook = fn
	s.XPB.hook = fn
}

// Crash simulates a power failure: the persistence-domain flush runs
// according to the mode, and a fresh System (cold cache, empty XPBuffer) is
// returned over the same durable device image. The old System must not be
// used afterwards.
//
// The persistence domain spans the cache (eADR only) AND the memory
// controller's XPBuffer (both modes — the WPQ drain is what ADR itself
// guarantees), so the crash sequence is: line sweep per mode, then buffer
// drain. With an armed fault plan, torn-write injection runs between those
// two steps (a block write interrupted mid-drain) and byte corruption runs
// after (damage to the durable image itself); the successor system starts
// with no plan armed.
func (s *System) Crash() *System {
	if s.faults == nil {
		s.Cache.CrashFlush()
		return newSystemOn(s.cfg, s.Dev)
	}
	p := s.faults
	p.disarm() // crash-flush traffic must not re-trip the plan
	clk := sim.NewClock()
	s.Cache.crashWriteback(clk)
	if p.Torn {
		s.XPB.tearOne(p)
	}
	s.XPB.Drain(clk)
	if p.Corrupt {
		p.corruptDevice(s.Dev)
	}
	return newSystemOn(s.cfg, s.Dev)
}

// Sync flushes all dirty state down to the media (clean shutdown).
func (s *System) Sync(clk *sim.Clock) {
	s.Cache.FlushAll(clk)
}
