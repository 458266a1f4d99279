package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func TestProbePartitionsClock(t *testing.T) {
	clk := sim.NewClock()
	var pr Probe

	pr.Begin(1, clk)
	clk.Advance(100) // exec
	prev := pr.To(PhaseCC)
	if prev != PhaseExec {
		t.Errorf("To returned %s, want the phase that was current (exec)", prev)
	}
	clk.Advance(30) // cc
	if back := pr.To(prev); back != PhaseCC {
		t.Errorf("To returned %s, want cc", back)
	}
	clk.Advance(20) // exec again
	pr.To(PhaseLogAppend)
	clk.Advance(50)
	pr.To(PhaseFlush)
	clk.Advance(7)
	pr.End(true, 0)

	var s Snapshot
	pr.AddTo(&s)
	want := map[Phase]uint64{PhaseExec: 120, PhaseCC: 30, PhaseLogAppend: 50, PhaseFlush: 7}
	for p, got := range s.PhaseNanos {
		if got != want[Phase(p)] {
			t.Errorf("phase %s = %d, want %d", Phase(p), got, want[Phase(p)])
		}
	}
	if s.TotalPhaseNanos() != clk.Nanos() {
		t.Errorf("phase sum %d != clock %d — phases must partition the clock", s.TotalPhaseNanos(), clk.Nanos())
	}
	// Closed: what the clock does now is nobody's transaction.
	clk.Advance(1000)
	pr.To(PhaseCC)
	pr.End(true, 0)
	var again Snapshot
	pr.AddTo(&again)
	if again.PhaseNanos != s.PhaseNanos || again.Commits != 1 {
		t.Errorf("a closed probe accounted time or a second outcome: %v, %d commits", again.PhaseNanos, again.Commits)
	}
}

func TestProbeNeverStartedIsInert(t *testing.T) {
	clk := sim.NewClock()
	var pr Probe
	if got := pr.To(PhaseCC); got != PhaseCC {
		t.Errorf("To on a probe with nothing open returned %s, want its argument", got)
	}
	pr.Finish()
	pr.End(false, AbortValidation)
	clk.Advance(10)
	pr.To(PhaseFlush)
	var s Snapshot
	pr.AddTo(&s)
	if s.TotalPhaseNanos() != 0 || s.Commits != 0 || s.Aborts != 0 {
		t.Errorf("a probe never started recorded %+v", s)
	}
}

func TestPhaseSetReset(t *testing.T) {
	clk := sim.NewClock()
	var pr Probe
	pr.Start(clk)
	clk.Advance(42)
	pr.Finish()
	var s Snapshot
	pr.AddTo(&s)
	if s.PhaseNanos[PhaseExec] != 42 {
		t.Fatalf("Start…Finish accounted %v, want 42 ns of exec", s.PhaseNanos)
	}
	pr.Reset()
	s = Snapshot{}
	pr.AddTo(&s)
	if s.TotalPhaseNanos() != 0 {
		t.Fatalf("phase nanoseconds not reset: %v", s.PhaseNanos)
	}
}

// TestAbortCountsConcurrent drives four probes from four goroutines, as an
// engine's workers do, while a reader sums them live: the outcome counts are
// the one part of a probe that may be read while its worker runs.
func TestAbortCountsConcurrent(t *testing.T) {
	probes := make([]Probe, 4)
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			var live Snapshot
			for i := range probes {
				probes[i].AddCounts(&live)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := range probes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clk := sim.NewWorkerClock(g)
			for i := 0; i < 1000; i++ {
				probes[g].Begin(uint64(i), clk)
				clk.Advance(1)
				probes[g].End(i%4 == 0, AbortReason(g))
			}
		}(g)
	}
	wg.Wait()
	close(done)
	reader.Wait()

	var s Snapshot
	for i := range probes {
		probes[i].AddTo(&s)
	}
	if s.Commits != 1000 || s.Aborts != 3000 || s.TotalPhaseNanos() != 4000 {
		t.Fatalf("commits %d aborts %d phase nanos %d, want 1000 / 3000 / 4000", s.Commits, s.Aborts, s.TotalPhaseNanos())
	}
	var sum uint64
	for r, n := range s.AbortCounts {
		if r < 4 && n != 750 {
			t.Errorf("reason %s = %d, want 750", AbortReason(r), n)
		}
		sum += n
	}
	if sum != s.Aborts {
		t.Errorf("reasons sum to %d, aborts %d", sum, s.Aborts)
	}

	pr := &probes[0]
	pr.Begin(1, sim.NewClock())
	pr.End(false, AbortReason(250)) // out of range folds into Other
	s = Snapshot{}
	pr.AddTo(&s)
	if s.AbortCounts[AbortOther] != 1 {
		t.Error("out-of-range reason must count as other")
	}
	pr.Reset()
	s = Snapshot{}
	pr.AddTo(&s)
	if s.Commits != 0 || s.Aborts != 0 || s.AbortCounts != [NumAbortReasons]uint64{} || s.TotalPhaseNanos() != 0 {
		t.Errorf("reset left %+v", s)
	}
}

// TestNilProbeIsInert: a window built outside an engine and a memory system
// nobody armed report to a nil probe.
func TestNilProbeIsInert(t *testing.T) {
	var pr *Probe
	pr.WALClaim(1, 2, true)
	pr.FlushTrain(1, 2, 3)
	pr.GroupWait(4)
	pr.EpochSeal(1, 2, 3, 4)
	pr.Flush(pmem.FlushXPFull, 0x100, 1, 2)
}

func TestSnapshotRenderers(t *testing.T) {
	var s Snapshot
	s.Commits = 7
	s.Aborts = 2
	s.AbortCounts[AbortValidation] = 2
	s.PhaseNanos[PhaseExec] = 60
	s.PhaseNanos[PhaseLogAppend] = 40
	s.WAL = WALStats{Begins: 9, Commits: 7, Aborts: 2, BytesLogged: 700, SlotBytes: 4096}
	s.Hot = HotSetStats{Hits: 3, Misses: 4, Evictions: 1}

	text := s.Text()
	for _, want := range []string{"commits 7", "validation 2", "log-append", "40", "hot-set", "wal", "pmem"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}

	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("JSON not parseable: %v", err)
	}
	phases, ok := decoded["phase_nanos"].(map[string]any)
	if !ok || phases["log-append"] != float64(40) {
		t.Errorf("phase_nanos = %v", decoded["phase_nanos"])
	}
	if decoded["commits"] != float64(7) {
		t.Errorf("commits = %v", decoded["commits"])
	}
}
