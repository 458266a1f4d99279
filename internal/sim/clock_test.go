package sim

import "testing"

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Nanos() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Nanos())
	}
	c.Advance(5)
	c.Advance(7)
	if c.Nanos() != 12 {
		t.Fatalf("clock at %d, want 12", c.Nanos())
	}
	c.Reset()
	if c.Nanos() != 0 {
		t.Fatalf("reset clock at %d, want 0", c.Nanos())
	}
}

func TestNilClockIsSafe(t *testing.T) {
	var c *Clock
	c.Advance(10) // must not panic
	if c.Nanos() != 0 {
		t.Fatalf("nil clock Nanos = %d, want 0", c.Nanos())
	}
}

func TestMaxNanos(t *testing.T) {
	a, b, c := NewClock(), NewClock(), NewClock()
	a.Advance(10)
	b.Advance(30)
	c.Advance(20)
	clocks := []*Clock{a, b, c}
	if got := MaxNanos(clocks); got != 30 {
		t.Errorf("MaxNanos = %d, want 30", got)
	}
}

// TestCostConstantsCalibrated: no media or fence latency is zero, and a media
// read is slower than a first DRAM line.
func TestCostConstantsCalibrated(t *testing.T) {
	for name, ns := range map[string]uint64{
		"MediaReadBlock": MediaReadBlock, "MediaWriteBlock": MediaWriteBlock, "Sfence": Sfence,
	} {
		if ns == 0 {
			t.Errorf("%s = 0", name)
		}
	}
	if MediaReadBlock <= DRAMFirstLine {
		t.Errorf("NVM media read (%d) should be slower than DRAM (%d)", MediaReadBlock, DRAMFirstLine)
	}
}

// TestDRAMCopy pins the copy cost: one first line, then the streaming cost
// per further 64 B line; an empty copy is charged as one line.
func TestDRAMCopy(t *testing.T) {
	for _, c := range []struct {
		n    int
		want uint64
	}{
		{0, DRAMFirstLine},
		{1, DRAMFirstLine},
		{64, DRAMFirstLine},
		{65, DRAMFirstLine + DRAMNextLine},
		{4096, DRAMFirstLine + 63*DRAMNextLine},
	} {
		if got := DRAMCopy(c.n); got != c.want {
			t.Errorf("DRAMCopy(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
