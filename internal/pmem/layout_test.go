package pmem

import (
	"strings"
	"testing"
	"unsafe"

	"falcon/internal/sim"
)

// TestHostLayout pins the host-cache properties the hot paths are laid out
// for: everything that is written on every access by one worker — a cache
// set's block, an XPBuffer bank, a stats shard — covers whole 64 B host lines
// and starts on one, so neighbours never share a line, and a set's metadata
// is no larger than the 64 B header plus 24 B per way it replaced.
func TestHostLayout(t *testing.T) {
	for ways := 1; ways <= 64; ways++ {
		b := setWords(ways) * 8
		if b%64 != 0 || b < uint64(setTags+2*ways)*8 {
			t.Errorf("%d ways: set block of %d B is not a whole number of host lines holding 2 words per way", ways, b)
		}
		if b > uint64(64+24*ways) {
			t.Errorf("%d ways: set block of %d B exceeds the %d B it replaced", ways, b, 64+24*ways)
		}
	}
	if n := unsafe.Sizeof(StatShard{}); n%64 != 0 {
		t.Errorf("StatShard is %d B, not a multiple of 64", n)
	}
	if n := unsafe.Sizeof(xpBank{}); n%64 != 0 {
		t.Errorf("xpBank is %d B, not a multiple of 64", n)
	}
	for _, ways := range []int{1, 3, 4, 8, 16} {
		for _, capacity := range []int{64, 4 << 10, 100 << 10} {
			c := newCache(nil, &Stats{}, EADR, capacity, ways, 1<<20)
			if a := uintptr(unsafe.Pointer(&c.meta[0])); a%64 != 0 {
				t.Errorf("%d ways, %d B: set blocks start at %#x, not on a host line", ways, capacity, a)
			}
			if uint64(len(c.meta)) != c.nsets*c.stride || uint64(len(c.data)) != c.nsets*uint64(ways) {
				t.Errorf("%d ways, %d B: %d meta words and %d payloads for %d sets", ways, capacity, len(c.meta), len(c.data), c.nsets)
			}
		}
	}
}

// TestBoundsCheckDoesNotWrap: an access whose end wraps past 2^64 must hit
// the bounds panic like any other out-of-range access. addr+n used to be
// compared after wrapping, so it passed the check and went on to index the
// device's chunk table.
func TestBoundsCheckDoesNotWrap(t *testing.T) {
	const addr = 1<<64 - 8
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: recovered %q, want the %q panic", name, msg, want)
			}
		}()
		f()
	}
	clk := sim.NewClock()
	buf := make([]byte, 16)
	sys := testSystem(EADR)
	dram := NewDRAM(1 << 20)
	for name, sp := range map[string]Space{"nvm": sys.Space, "dram": dram} {
		mustPanic(name+" write", "beyond space bounds", func() { sp.Write(clk, addr, buf) })
		mustPanic(name+" read", "beyond space bounds", func() { sp.Read(clk, addr, buf) })
	}
	mustPanic("clwb", "beyond space bounds", func() { sys.Space.CLWB(clk, addr, 16) })
	mustPanic("train", "beyond space bounds", func() { sys.Space.CLWBTrain(clk, []Span{{Off: addr, N: 16}}) })
	mustPanic("raw read", "beyond device size", func() { sys.Dev.RawRead(addr, buf) })
	mustPanic("raw write", "beyond device size", func() { sys.Dev.RawWrite(addr, buf) })
	if clk.Nanos() != 0 {
		t.Errorf("out-of-range accesses charged %d virtual ns", clk.Nanos())
	}
}
