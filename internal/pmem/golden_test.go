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
// reads (a missed line fetches its block once; the siblings hit), and the
// group rows again when group mode became three goroutines taking turns on
// the shared system under a sim.Group token; a host-side change to
// internal/pmem must reproduce them exactly — not one virtual-time byte may
// move.
var goldenWant = map[string]string{
	"4way/eADR/shared":  "nvm{47687 25318 467 24851 591 6894 19272 23427 22831 26149 59847 28633 31086 3512 1847100 6481408 72 0 1631 10357} dram{0 0 0 0 0 0 0 0 0 2399 10916 4626 6226 0 242581 0 0 0 0 0} clk[7528092 7223524 7553402] faults[9923 19506 59719 25318] hooks=2a779c7e4005f769 crc=b29885e7",
	"4way/eADR/group":   "nvm{47177 24885 463 24422 552 6785 18981 23307 22750 26314 58994 27942 30924 3674 1855262 6370560 59 0 1674 11300} dram{0 0 0 0 0 0 0 0 0 2452 11352 5003 6285 0 271956 0 0 0 0 0} clk[7444742 7237045 7377136] faults[9748 19991 58866 24885] hooks=f05bad30b0fd832d crc=c343860d",
	"4way/ADR/shared":   "nvm{47294 24716 389 24327 551 6531 19615 23518 22964 27069 59605 27918 31559 3329 1843834 6327296 0 87 1556 10096} dram{0 0 0 0 0 0 0 0 0 2517 11154 5431 5659 0 301668 0 0 0 0 0} clk[7379814 7459086 7280651] faults[9803 18991 59477 24716] hooks=d052cd8c101dea55 crc=28928d33",
	"4way/ADR/group":    "nvm{48356 25747 410 25337 566 6877 19606 23585 23018 27409 60813 29308 31377 3317 1921110 6591232 0 70 1552 9831} dram{0 0 0 0 0 0 0 0 0 2112 11073 4919 6090 0 258631 0 0 0 0 0} clk[7621892 7404834 7614153] faults[9909 19073 60685 25747] hooks=0ad367a14a74d3c9 crc=f39aa298",
	"8way/eADR/shared":  "nvm{46010 24030 511 23519 617 7485 19274 23108 22487 26392 59062 28132 30802 3344 1836291 6151680 51 0 1587 10243} dram{0 0 0 0 0 0 0 0 0 2205 11419 5201 6154 0 271501 0 0 0 0 0} clk[7390647 7000632 7195142] faults[9831 19127 58934 24030] hooks=b09e30276c219ebc crc=243a5772",
	"8way/eADR/group":   "nvm{46558 24116 601 23515 566 8180 20273 23609 23039 27610 60888 28708 32052 3522 1890207 6173696 69 0 1613 10492} dram{0 0 0 0 0 0 0 0 0 2514 10324 4481 5779 0 232590 0 0 0 0 0} clk[7382541 7379867 7067987] faults[9825 19696 60760 24116] hooks=e1ad066da2f04438 crc=83a8abb4",
	"8way/ADR/shared":   "nvm{46172 24039 513 23526 572 7738 19809 23218 22642 26439 59938 28393 31417 3390 1857693 6153984 0 77 1638 10264} dram{0 0 0 0 0 0 0 0 0 2758 11390 5233 6093 0 289443 0 0 0 0 0} clk[7235479 7318647 7168281] faults[9862 19474 59810 24039] hooks=906006221cec3ddc crc=6f053017",
	"8way/ADR/group":    "nvm{45307 23363 527 22836 603 7555 19751 23074 22468 27129 59112 27729 31255 3197 1817957 5980928 0 106 1587 10238} dram{0 0 0 0 0 0 0 0 0 2185 10766 4830 5872 0 259376 0 0 0 0 0} clk[7066514 7185830 7030104] faults[9798 18830 58984 23363] hooks=640384e77eabd590 crc=3305befd",
	"16way/eADR/shared": "nvm{44863 23268 782 22486 609 9274 19426 22986 22372 26454 59850 29051 30671 3421 1904811 5956608 76 0 1601 9775} dram{0 0 0 0 0 0 0 0 0 2486 11317 5397 5856 0 295300 0 0 0 0 0} clk[7140443 7123313 6858419] faults[9951 18225 59722 23268] hooks=1fdf0e4385858bca crc=941f028b",
	"16way/eADR/group":  "nvm{44922 23092 760 22332 592 9050 19790 23182 22584 25838 60119 28727 31264 3381 1830580 5911552 37 0 1649 10380} dram{0 0 0 0 0 0 0 0 0 2424 11068 5169 5835 0 282685 0 0 0 0 0} clk[7268647 6921764 6950470] faults[9802 19682 59991 23092] hooks=6d1d521bab048141 crc=d253aad3",
	"16way/ADR/shared":  "nvm{44659 22991 751 22240 630 9035 19531 23049 22418 25822 59910 28961 30821 3071 1856877 5885696 0 53 1647 10672} dram{0 0 0 0 0 0 0 0 0 2300 10599 5012 5523 0 276599 0 0 0 0 0} clk[7005496 7000278 6987740] faults[9901 19116 59782 22991] hooks=4515e04e0c5464da crc=797938f8",
	"16way/ADR/group":   "nvm{44190 22641 821 21820 624 9317 19717 22994 22363 26889 59677 28146 31403 3819 1878397 5796096 0 40 1594 10825} dram{0 0 0 0 0 0 0 0 0 2254 10472 4488 5920 0 232791 0 0 0 0 0} clk[6865316 7020536 6949988] faults[9791 19963 59549 22641] hooks=260e003c20ab95e0 crc=6dcd84a9",
}

// goldenRun drives a seeded mixed op stream from three worker clocks over a
// tiny NVM system and a tiny DRAM space (small enough that evictions,
// XPBuffer merges and partial-block write-backs all happen constantly),
// checks every load against a flat byte model, crashes the system and
// returns the fingerprint goldenWant pins. Shared, one goroutine draws each
// op's worker from the stream; group, three goroutines each draw their own
// ops and take turns under a sim.Group token, in virtual-time order.
func goldenRun(t *testing.T, ways int, mode Mode, group bool) string {
	const nvmSize, dramSize, hot = 256 << 10, 64 << 10, 6 << 10
	sys := NewSystem(Config{Mode: mode, DeviceBytes: nvmSize, CacheBytes: 8 << 10, CacheWays: ways,
		XPBufferBytes: 2 << 10, XPBanks: 2})
	dram := newDRAM(dramSize, 4<<10, ways)
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

	clks := []*sim.Clock{sim.NewWorkerClock(0), sim.NewWorkerClock(1), sim.NewWorkerClock(2)}
	models := [2][]byte{make([]byte, nvmSize), make([]byte, dramSize)}
	spaces := [2]Space{sys.Space, dram}
	buf, got := make([]byte, 2048), make([]byte, 2048)
	// step makes op i on clk from the stream st, returning what went wrong.
	step := func(i int, clk *sim.Clock, st *uint64) string {
		which := 0
		if rng(st)%8 == 0 {
			which = 1
		}
		sp, model := spaces[which], models[which]
		// Lengths 1…2048 skewed small; offsets odd as often as not, half of
		// them inside a hot window so hits and merges happen too.
		n := 1 + int(rng(st)%64)
		if rng(st)%4 == 0 {
			n = 1 + int(rng(st)%2048)
		}
		span := sp.Size()
		if rng(st)%2 == 0 {
			span = hot
		}
		off := rng(st) % (span - uint64(n))
		switch rng(st) % 16 {
		case 0, 1, 2, 3, 4:
			sp.Read(clk, off, got[:n])
			if !bytes.Equal(got[:n], model[off:off+uint64(n)]) {
				return fmt.Sprintf("op %d: read [%d,+%d) differs from the flat model", i, off, n)
			}
		case 5, 6, 7, 8:
			for j := 0; j < n; j += 8 {
				v := rng(st)
				for k := j; k < j+8 && k < n; k++ {
					buf[k] = byte(v >> (8 * (k - j)))
				}
			}
			sp.Write(clk, off, buf[:n])
			copy(model[off:], buf[:n])
		case 9, 10:
			off = rng(st) % (span - 8) // any alignment, line-straddling included
			var want uint64
			for k := 7; k >= 0; k-- {
				want = want<<8 | uint64(model[off+uint64(k)])
			}
			if v := sp.ReadU64(clk, off); v != want {
				return fmt.Sprintf("op %d: ReadU64(%d) = %#x, want %#x", i, off, v, want)
			}
		case 11, 12:
			off = rng(st) % (span - 8)
			v := rng(st)
			sp.WriteU64(clk, off, v)
			for k := 0; k < 8; k++ {
				model[off+uint64(k)] = byte(v >> (8 * k))
			}
		case 13:
			sp.CLWB(clk, off, n)
		case 14:
			spans := []Span{{Off: off, N: n}, {Off: off, N: 0}, {Off: rng(st) % (span - 300), N: int(rng(st) % 300)}}
			sp.CLWBTrain(clk, spans[:1+rng(st)%3])
		case 15:
			sp.SFence(clk)
		}
		return ""
	}
	st := uint64(ways)<<8 | uint64(mode)<<1 | 1
	if !group {
		for i := 0; i < 30000; i++ {
			if msg := step(i, clks[rng(&st)%3], &st); msg != "" {
				t.Fatal(msg)
			}
		}
	} else {
		g := sim.NewGroup(clks)
		msgs := make([]string, len(clks))
		g.Run(len(clks), func(w int) {
			st := st ^ uint64(w+1)<<32
			for i := 0; i < 10000 && msgs[w] == ""; i++ {
				g.Yield(w)
				msgs[w] = step(i, clks[w], &st)
			}
		})
		for _, msg := range msgs {
			if msg != "" {
				t.Fatal(msg)
			}
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
	if mode == EADR && !bytes.Equal(img, models[0]) {
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
