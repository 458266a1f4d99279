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

func TestDefaultCostModelPopulated(t *testing.T) {
	cm := DefaultCostModel()
	if cm.MediaReadBlock == 0 || cm.MediaWriteBlock == 0 || cm.Sfence == 0 {
		t.Fatalf("default cost model has zero core latencies: %+v", cm)
	}
	if cm.MediaReadBlock <= cm.DRAMFirstLine {
		t.Errorf("NVM media read (%d) should be slower than DRAM (%d)",
			cm.MediaReadBlock, cm.DRAMFirstLine)
	}
}
