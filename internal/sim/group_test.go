package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// event is one iteration of a worker in a Group: who ran, at what virtual
// time.
type event struct {
	w   int
	now uint64
}

// runGroup runs len(iters) workers through one phase: worker w makes
// iters[w] iterations of Yield, log, advance by steps[w], then leaves. stop,
// when non-nil, is consulted under the token before each iteration; a true
// return makes the worker leave at once (a phase canceled by a failed
// worker). It returns the log, failing the test if the phase hangs.
func runGroup(t *testing.T, procs int, steps []uint64, iters []int, stop func(w, i int) bool) []event {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clocks := make([]*Clock, len(steps))
	for w := range clocks {
		clocks[w] = NewWorkerClock(w)
	}
	g := NewGroup(clocks)
	var log []event // appended by the token holder only
	g.Begin(len(steps))
	var wg sync.WaitGroup
	for w := range steps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer g.Leave(w)
			for i := 0; i < iters[w]; i++ {
				g.Yield(w)
				if stop != nil && stop(w, i) {
					return
				}
				log = append(log, event{w, clocks[w].Nanos()})
				clocks[w].Advance(steps[w])
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the phase hung")
	}
	return log
}

// modelGroup replays the token rule serially: the holder runs an iteration,
// then, unless that was its last, hands the token to the live worker with the
// smallest (clock, id) when that worker is strictly behind it; a worker out of
// iterations leaves and the token goes to the smallest (clock, id) still live.
func modelGroup(steps []uint64, iters []int) []event {
	n := len(steps)
	clk, done, live := make([]uint64, n), make([]int, n), make([]bool, n)
	for w := range live {
		live[w] = true
	}
	behind := func(skip int) int {
		m := -1
		for w := range live {
			if live[w] && w != skip && (m < 0 || clk[w] < clk[m]) {
				m = w
			}
		}
		return m
	}
	var log []event
	for h := behind(-1); h >= 0; {
		if done[h] == iters[h] {
			live[h] = false
			h = behind(-1)
			continue
		}
		log = append(log, event{h, clk[h]})
		clk[h] += steps[h]
		done[h]++
		if m := behind(h); done[h] < iters[h] && m >= 0 && clk[m] < clk[h] {
			h = m
		}
	}
	return log
}

// TestGroupCanonicalOrder: the token moves in (clock, id) order — the run
// equals the serial model of the rule on every schedule — for equal steps
// (every handoff a tie between candidates), skewed steps, and workers with
// different quotas.
func TestGroupCanonicalOrder(t *testing.T) {
	// Two workers stepping 2: worker 0 starts (ids break the tie at zero), and
	// a holder tied with the other worker keeps the token.
	want := []event{{0, 0}, {1, 0}, {1, 2}, {0, 2}, {0, 4}, {1, 4}}
	if got := modelGroup([]uint64{2, 2}, []int{3, 3}); !slices.Equal(got, want) {
		t.Fatalf("model: %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	cases := [][2][]int{
		{{2, 2}, {3, 3}},
		{{5, 5, 5, 5, 5, 5, 5, 5}, {40, 40, 40, 40, 40, 40, 40, 40}},
		{{10, 1, 1}, {20, 50, 50}},
	}
	for i := 0; i < 5; i++ {
		var steps, iters []int
		for w := 0; w < 2+rng.Intn(7); w++ {
			steps = append(steps, 1+rng.Intn(100))
			iters = append(iters, 1+rng.Intn(60))
		}
		cases = append(cases, [2][]int{steps, iters})
	}
	for _, c := range cases {
		steps := make([]uint64, len(c[0]))
		for w, s := range c[0] {
			steps[w] = uint64(s)
		}
		want := modelGroup(steps, c[1])
		for _, procs := range []int{1, 4, 4} {
			if got := runGroup(t, procs, steps, c[1], nil); !slices.Equal(got, want) {
				t.Fatalf("steps %v, iterations %v, GOMAXPROCS %d:\n got  %v\n want %v", steps, c[1], procs, got, want)
			}
		}
	}
}

// TestGroupEarlyLeave: a worker that leaves before its first safe point (no
// iterations) waits its turn for the token and passes it on, and the others
// finish in the model's order. Workers 1 and 4 leave so; worker 0 has the
// token first, so neither may leave at once.
func TestGroupEarlyLeave(t *testing.T) {
	steps := []uint64{3, 1, 4, 1, 5}
	iters := []int{30, 0, 20, 1, 0}
	want := modelGroup(steps, iters)
	for _, procs := range []int{1, 4} {
		if got := runGroup(t, procs, steps, iters, nil); !slices.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d:\n got  %v\n want %v", procs, got, want)
		}
	}
	if got := runGroup(t, 4, steps, []int{0, 0, 0, 0, 0}, nil); len(got) != 0 {
		t.Fatalf("a phase every worker leaves at once ran %v", got)
	}
}

// TestGroupWorkerFailsMidPhase: a worker that fails mid-phase raises a flag
// the others read under the token and leaves; the phase ends, and where each
// worker stopped is the same on every schedule.
func TestGroupWorkerFailsMidPhase(t *testing.T) {
	steps := []uint64{7, 3, 5, 2}
	iters := []int{100, 100, 100, 100}
	var first []event
	for _, procs := range []int{1, 4, 4} {
		failed := false
		log := runGroup(t, procs, steps, iters, func(w, i int) bool {
			if w == 2 && i == 10 {
				failed = true
			}
			return failed
		})
		if len(log) == 0 || len(log) >= 400 {
			t.Fatalf("GOMAXPROCS %d: %d iterations ran around a failure at worker 2's eleventh", procs, len(log))
		}
		if first == nil {
			first = log
		} else if !slices.Equal(log, first) {
			t.Fatalf("GOMAXPROCS %d: the canceled phase ran\n %v\nnot\n %v", procs, log, first)
		}
	}
}

// passPhase runs one phase of spin-waits: worker w starts at clock starts[w],
// spins with Pass until every flag in waits[w] is set, then sets the flags
// in sets[w] and leaves. The flags are touched under the token only. It
// returns how many passes each worker made, failing the test if the phase
// hangs.
func passPhase(t *testing.T, procs int, starts []uint64, waits, sets [][]int) []int {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clocks := make([]*Clock, len(starts))
	for w := range clocks {
		clocks[w] = NewWorkerClock(w)
		clocks[w].Advance(starts[w])
	}
	g := NewGroup(clocks)
	flags := map[int]bool{}
	passes := make([]int, len(starts))
	g.Begin(len(starts))
	var wg sync.WaitGroup
	for w := range starts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer g.Leave(w)
			g.Yield(w)
			for slices.ContainsFunc(waits[w], func(f int) bool { return !flags[f] }) {
				passes[w]++
				g.Pass(w)
			}
			for _, f := range sets[w] {
				flags[f] = true
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the phase hung: the spinners kept the token among themselves")
	}
	return passes
}

// TestGroupPass: a spinner hands the token on with Pass and gets out,
// though its clock never moves; each case gives the passes each worker makes
// on every schedule.
func TestGroupPass(t *testing.T) {
	cases := []struct {
		name   string
		starts []uint64
		waits  [][]int
		sets   [][]int
		passes []int
	}{
		// The setter's clock is ahead of the spinner's.
		{"setter ahead", []uint64{0, 100}, [][]int{{0}, nil}, [][]int{nil, {0}}, []int{1, 0}},
		// Two spinners, both behind the worker that sets their flag, do not
		// hand the token back and forth: Pass takes it past the other
		// spinner to the setter.
		{"past a spinner", []uint64{0, 0, 100}, [][]int{{0}, {0}, nil}, [][]int{nil, nil, {0}}, []int{1, 1, 0}},
		// When every other worker spins, Pass goes round them in id order,
		// so the one whose flag was set gets to look. Workers 0 and 1 spin
		// on flag 1; worker 2 spins on flag 0 and then sets flag 1; worker 3
		// sets flag 0 and leaves, which wakes worker 0 with all three still
		// spinning. Handing the token to the most-behind other spinner
		// instead would leave it between workers 0 and 1.
		{"round the spinners", []uint64{0, 0, 0, 100}, [][]int{{1}, {1}, {0}, nil}, [][]int{nil, nil, {1}, {0}}, []int{2, 2, 1, 0}},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 4, 4} {
			if got := passPhase(t, procs, c.starts, c.waits, c.sets); !slices.Equal(got, c.passes) {
				t.Fatalf("%s, GOMAXPROCS %d: passes %v, want %v", c.name, procs, got, c.passes)
			}
		}
	}
}
