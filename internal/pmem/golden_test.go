package pmem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"falcon/internal/sim"
)

// goldenWant pins the simulated event sequence: one line per configuration,
// holding the NVM and DRAM stats snapshots, the three workers' virtual
// clocks, the fault-plan event counts, a hash over every trace/contend hook
// call (arguments and order) and the CRC32 of the post-crash device image.
// The constants were re-recorded when the XPBuffer began to allocate on
// reads (a missed line fetches its block once; the siblings hit); a
// host-side change to internal/pmem must reproduce them exactly — not one
// virtual-time byte may move.
var goldenWant = map[string]string{
	"4way/eADR/shared":  "nvm{47687 25318 467 24851 591 6894 19272 23427 22831 26149 59847 28633 31086 3512 1847100 6481408 72 0 1631 10357} dram{0 0 0 0 0 0 0 0 0 2399 10916 4626 6226 0 242581 0 0 0 0 0} clk[7528092 7223524 7553402] faults[9923 19506 59719 25318] hooks=2a779c7e4005f769 crc=b29885e7",
	"4way/eADR/group":   "nvm{54414 27578 386 27192 314 7777 23700 27536 27214 14504 71492 33676 37688 1682 1847100 7059968 0 0 1631 10357} dram{0 0 0 0 0 0 0 0 0 990 12325 4946 7315 0 242581 0 0 0 0 0} clk[8551795 8301509 8469948] faults[0 0 0 0] hooks=f29814c35628bbc2 crc=b29885e7",
	"4way/ADR/shared":   "nvm{47294 24716 389 24327 551 6531 19615 23518 22964 27069 59605 27918 31559 3329 1843834 6327296 0 87 1556 10096} dram{0 0 0 0 0 0 0 0 0 2517 11154 5431 5659 0 301668 0 0 0 0 0} clk[7379814 7459086 7280651] faults[9803 18991 59477 24716] hooks=d052cd8c101dea55 crc=28928d33",
	"4way/ADR/group":    "nvm{54158 27235 359 26876 364 7604 24128 27646 27274 14831 71843 33179 38536 1661 1843834 6972160 0 0 1556 10096} dram{0 0 0 0 0 0 0 0 0 1109 12562 5877 6621 0 301668 0 0 0 0 0} clk[8445537 8374644 8388346] faults[0 0 0 0] hooks=9d3bfb121bbfc5ee crc=9e5628ce",
	"8way/eADR/shared":  "nvm{46010 24030 511 23519 617 7485 19274 23108 22487 26392 59062 28132 30802 3344 1836291 6151680 51 0 1587 10243} dram{0 0 0 0 0 0 0 0 0 2205 11419 5201 6154 0 271501 0 0 0 0 0} clk[7390647 7000632 7195142] faults[9831 19127 58934 24030] hooks=b09e30276c219ebc crc=243a5772",
	"8way/eADR/group":   "nvm{54216 27549 417 27132 394 7680 23619 27478 27079 13837 71617 33449 38040 1784 1836291 7052544 0 0 1587 10243} dram{0 0 0 0 0 0 0 0 0 962 12662 5405 7193 0 271501 0 0 0 0 0} clk[8547962 8290375 8407112] faults[0 0 0 0] hooks=e8621071244150b7 crc=243a5772",
	"8way/ADR/shared":   "nvm{46172 24039 513 23526 572 7738 19809 23218 22642 26439 59938 28393 31417 3390 1857693 6153984 0 77 1638 10264} dram{0 0 0 0 0 0 0 0 0 2758 11390 5233 6093 0 289443 0 0 0 0 0} clk[7235479 7318647 7168281] faults[9862 19474 59810 24039] hooks=906006221cec3ddc crc=6f053017",
	"8way/ADR/group":    "nvm{54845 27992 333 27659 394 7423 24313 27580 27183 13998 72379 33841 38410 1579 1857693 7165952 0 0 1638 10264} dram{0 0 0 0 0 0 0 0 0 1192 12956 5601 7291 0 289443 0 0 0 0 0} clk[8499921 8517750 8592448] faults[0 0 0 0] hooks=9dbdebee3cf9c84b crc=31a7a726",
	"16way/eADR/shared": "nvm{44863 23268 782 22486 609 9274 19426 22986 22372 26454 59850 29051 30671 3421 1904811 5956608 76 0 1601 9775} dram{0 0 0 0 0 0 0 0 0 2486 11317 5397 5856 0 295300 0 0 0 0 0} clk[7140443 7123313 6858419] faults[9951 18225 59722 23268] hooks=1fdf0e4385858bca crc=941f028b",
	"16way/eADR/group":  "nvm{51922 25990 877 25113 381 10015 23531 27190 26799 14456 71848 34300 37420 1707 1904811 6653440 0 0 1601 9775} dram{0 0 0 0 0 0 0 0 0 1017 12786 5771 6951 0 295300 0 0 0 0 0} clk[8254167 8044555 7995615] faults[0 0 0 0] hooks=7f9c6848f56bcf5f crc=941f028b",
	"16way/ADR/shared":  "nvm{44659 22991 751 22240 630 9035 19531 23049 22418 25822 59910 28961 30821 3071 1856877 5885696 0 53 1647 10672} dram{0 0 0 0 0 0 0 0 0 2300 10599 5012 5523 0 276599 0 0 0 0 0} clk[7005496 7000278 6987740] faults[9901 19116 59782 22991] hooks=4515e04e0c5464da crc=797938f8",
	"16way/ADR/group":   "nvm{51750 25730 839 24891 412 9758 23551 27271 26853 14233 71499 33889 37482 1602 1856877 6586880 0 0 1647 10672} dram{0 0 0 0 0 0 0 0 0 928 11971 5428 6479 0 276599 0 0 0 0 0} clk[8147942 7875196 8114302] faults[0 0 0 0] hooks=fb30981aeae3f298 crc=6ff31610",
}

// goldenRun drives a seeded mixed op stream from three worker clocks over a
// tiny NVM system and a tiny DRAM space (small enough that evictions,
// XPBuffer merges and partial-block write-backs all happen constantly),
// checks every load against a flat byte model, crashes the system and
// returns the fingerprint goldenWant pins.
func goldenRun(t *testing.T, ways int, mode Mode, group bool) string {
	const nvmSize, dramSize, hot = 256 << 10, 64 << 10, 6 << 10
	sys := NewSystem(Config{Mode: mode, DeviceBytes: nvmSize, CacheBytes: 8 << 10, CacheWays: ways,
		XPBufferBytes: 2 << 10, XPBanks: 2})
	dram := newDRAM(dramSize, sys.Cost(), 4<<10, ways)
	plan := &FaultPlan{} // N == 0: counts events, never fires
	sys.SetFaults(plan)
	hooks := uint64(14695981039346656037)
	mix := func(vs ...uint64) {
		for _, v := range vs {
			hooks = (hooks ^ v) * 1099511628211
		}
	}
	// The digests were recorded when an eviction was reported twice, to a
	// trace hook (tag 1: its window and whether the block was full) and then
	// to an attribution hook (tag 2: every write-back's kind and address).
	sys.SetHook(func(shard uint64, kind FlushKind, addr, start, end uint64) {
		if kind >= FlushXPFull {
			f := uint64(0)
			if kind == FlushXPFull {
				f = 1
			}
			mix(1, shard, start, end, f, addr)
		}
		mix(2, shard, uint64(kind), addr)
	})
	if group {
		sys.Space.EnterGroup(2) // worker 2 wraps onto partition 0
		dram.EnterGroup(2)
	}

	clks := []*sim.Clock{sim.NewWorkerClock(0), sim.NewWorkerClock(1), sim.NewWorkerClock(2)}
	models := [2][]byte{make([]byte, nvmSize), make([]byte, dramSize)}
	spaces := [2]Space{sys.Space, dram}
	buf, got := make([]byte, 2048), make([]byte, 2048)
	st := uint64(ways)<<8 | uint64(mode)<<1 | 1
	for i := 0; i < 30000; i++ {
		clk := clks[rng(&st)%3]
		which := 0
		if rng(&st)%8 == 0 {
			which = 1
		}
		sp, model := spaces[which], models[which]
		// Lengths 1…2048 skewed small; offsets odd as often as not, half of
		// them inside a hot window so hits and merges happen too.
		n := 1 + int(rng(&st)%64)
		if rng(&st)%4 == 0 {
			n = 1 + int(rng(&st)%2048)
		}
		span := sp.Size()
		if rng(&st)%2 == 0 {
			span = hot
		}
		off := rng(&st) % (span - uint64(n))
		switch rng(&st) % 16 {
		case 0, 1, 2, 3, 4:
			sp.Read(clk, off, got[:n])
			if !bytes.Equal(got[:n], model[off:off+uint64(n)]) {
				t.Fatalf("op %d: read [%d,+%d) differs from the flat model", i, off, n)
			}
		case 5, 6, 7, 8:
			for j := 0; j < n; j += 8 {
				v := rng(&st)
				for k := j; k < j+8 && k < n; k++ {
					buf[k] = byte(v >> (8 * (k - j)))
				}
			}
			sp.Write(clk, off, buf[:n])
			copy(model[off:], buf[:n])
		case 9, 10:
			off = rng(&st) % (span - 8) // any alignment, line-straddling included
			var want uint64
			for k := 7; k >= 0; k-- {
				want = want<<8 | uint64(model[off+uint64(k)])
			}
			if v := sp.ReadU64(clk, off); v != want {
				t.Fatalf("op %d: ReadU64(%d) = %#x, want %#x", i, off, v, want)
			}
		case 11, 12:
			off = rng(&st) % (span - 8)
			v := rng(&st)
			sp.WriteU64(clk, off, v)
			for k := 0; k < 8; k++ {
				model[off+uint64(k)] = byte(v >> (8 * k))
			}
		case 13:
			sp.CLWB(clk, off, n)
		case 14:
			spans := []Span{{Off: off, N: n}, {Off: off, N: 0}, {Off: rng(&st) % (span - 300), N: int(rng(&st) % 300)}}
			sp.CLWBTrain(clk, spans[:1+rng(&st)%3])
		case 15:
			sp.SFence(clk)
		}
	}

	// The DRAM space has no durable image; read it back whole instead.
	full := make([]byte, dramSize)
	dram.Read(clks[0], 0, full)
	if !bytes.Equal(full, models[1]) {
		t.Fatal("DRAM space content differs from the flat model")
	}
	dsnap := dram.cache.stats.Snapshot()

	sys2 := sys.Crash()
	img := make([]byte, nvmSize)
	sys2.Dev.RawRead(0, img)
	if (mode == EADR || group) && !bytes.Equal(img, models[0]) {
		t.Fatal("post-crash device image differs from the flat model")
	}
	return fmt.Sprintf("nvm%v dram%v clk[%d %d %d] faults%v hooks=%016x crc=%08x",
		sys2.Dev.Stats().Snapshot(), dsnap, clks[0].Nanos(), clks[1].Nanos(), clks[2].Nanos(),
		plan.Counts(), hooks, crc32.ChecksumIEEE(img))
}

func TestGoldenAccessSequence(t *testing.T) {
	for _, ways := range []int{4, 8, 16} {
		for _, mode := range []Mode{EADR, ADR} {
			for _, group := range []bool{false, true} {
				name := fmt.Sprintf("%dway/%v/shared", ways, mode)
				if group {
					name = fmt.Sprintf("%dway/%v/group", ways, mode)
				}
				t.Run(name, func(t *testing.T) {
					if got := goldenRun(t, ways, mode, group); got != goldenWant[name] {
						t.Errorf("simulated event sequence moved\n got: %s\nwant: %s", got, goldenWant[name])
					}
				})
			}
		}
	}
}
