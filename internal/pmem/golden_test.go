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
// The constants were recorded on the commit before the cache and XPBuffer
// host layout was rebuilt; a host-side change to internal/pmem must
// reproduce them exactly — not one virtual-time byte may move.
var goldenWant = map[string]string{
	"4way/eADR/shared":  "nvm{63754 22804 808 21996 9378 941 26149 59847 28633 31086 3512 1847100 5837824 72 0 1631 10357} dram{0 0 0 0 0 0 2399 10916 4626 6226 0 242581 0 0 0 0 0} clk[8487412 8062124 8496832] faults[9923 19506 59719 22804] hooks=ce773e7914e0afe5 crc=b29885e7",
	"4way/eADR/group":   "nvm{74932 25034 763 24271 10314 575 14504 71492 33676 37688 1682 1847100 6408704 0 0 1631 10357} dram{0 0 0 0 0 0 990 12325 4946 7315 0 242581 0 0 0 0 0} clk[9734575 9518039 9712308] faults[0 0 0 0] hooks=26a46881b95038ee crc=b29885e7",
	"4way/ADR/shared":   "nvm{63494 22129 739 21390 9086 1029 27069 59605 27918 31559 3329 1843834 5665024 0 87 1556 10096} dram{0 0 0 0 0 0 2517 11154 5431 5659 0 301668 0 0 0 0 0} clk[8326444 8428156 8110541] faults[9803 18991 59477 22129] hooks=806d95fd1dc0d874 crc=28928d33",
	"4way/ADR/group":    "nvm{74972 24658 727 23931 10169 733 14831 71843 33179 38536 1661 1843834 6312448 0 0 1556 10096} dram{0 0 0 0 0 0 1109 12562 5877 6621 0 301668 0 0 0 0 0} clk[9670877 9679014 9559196] faults[0 0 0 0] hooks=a9ddc90714ad1fb7 crc=9e5628ce",
	"8way/eADR/shared":  "nvm{60847 20781 1156 19625 10709 1160 26392 59062 28132 30802 3344 1836291 5319936 51 0 1587 10243} dram{0 0 0 0 0 0 2205 11419 5201 6154 0 271501 0 0 0 0 0} clk[8203517 7730822 7920422] faults[9831 19127 58934 20781] hooks=5cc2624708959771 crc=243a5772",
	"8way/eADR/group":   "nvm{73541 24133 978 23155 11084 711 13837 71617 33449 38040 1784 1836291 6178048 0 0 1587 10243} dram{0 0 0 0 0 0 962 12662 5405 7193 0 271501 0 0 0 0 0} clk[9619532 9299775 9481202] faults[0 0 0 0] hooks=f70584d92a586173 crc=243a5772",
	"8way/ADR/shared":   "nvm{61348 20673 1219 19454 11060 1133 26439 59938 28393 31417 3390 1857693 5292288 0 77 1638 10264} dram{0 0 0 0 0 0 2758 11390 5233 6093 0 289443 0 0 0 0 0} clk[7981919 8115107 7922771] faults[9862 19474 59810 20673] hooks=adc23e0429a21046 crc=6f053017",
	"8way/ADR/group":    "nvm{74951 24633 858 23775 10768 717 13998 72379 33841 38410 1579 1857693 6306048 0 0 1638 10264} dram{0 0 0 0 0 0 1192 12956 5601 7291 0 289443 0 0 0 0 0} clk[9600221 9698800 9648228] faults[0 0 0 0] hooks=28d817c4226c1604 crc=31a7a726",
	"16way/eADR/shared": "nvm{58790 19510 1807 17703 13005 1325 26454 59850 29051 30671 3421 1904811 4994560 76 0 1601 9775} dram{0 0 0 0 0 0 2486 11317 5397 5856 0 295300 0 0 0 0 0} clk[7763263 7813323 7452619] faults[9951 18225 59722 19510] hooks=122ca37e552f54c6 crc=941f028b",
	"16way/eADR/group":  "nvm{70244 22218 1845 20373 13763 850 14456 71848 34300 37420 1707 1904811 5687808 0 0 1601 9775} dram{0 0 0 0 0 0 1017 12786 5771 6951 0 295300 0 0 0 0 0} clk[9146837 9152955 8808615] faults[0 0 0 0] hooks=616ba3fbdc722e21 crc=941f028b",
	"16way/ADR/shared":  "nvm{58767 19210 1786 17424 12785 1237 25822 59910 28961 30821 3071 1856877 4917760 0 53 1647 10672} dram{0 0 0 0 0 0 2300 10599 5012 5523 0 276599 0 0 0 0 0} clk[7673416 7627008 7633440] faults[9901 19116 59782 19210] hooks=e46b3f076171a45d crc=797938f8",
	"16way/ADR/group":   "nvm{70213 21925 1788 20137 13546 746 14233 71499 33889 37482 1602 1856877 5612800 0 0 1647 10672} dram{0 0 0 0 0 0 928 11971 5428 6479 0 276599 0 0 0 0 0} clk[9051072 8847916 9078052] faults[0 0 0 0] hooks=65dffe3b72de36a3 crc=6ff31610",
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
