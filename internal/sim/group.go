//go:build go1.23

// iter.Pull needs go 1.23, and go vet refuses it in a go 1.22 file. go.mod
// stays at 1.22 while benchmark/go.mod does (a root line above the benchmark
// module's stops its build); when both move to 1.23, this build line goes.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Group is the deterministic scheduler behind worker-parallel cells, in the
// spirit of conservative discrete-event simulation: Run drives the workers as
// coroutines over one shared simulated machine, and exactly one of them runs
// at a time — the one holding the token.
//
// A worker calls Yield(w) at each of its safe points. Its first safe point of
// a phase keeps the token. At every later one it hands the token to the live
// worker with the smallest virtual clock (ties to the lowest id) when that
// worker is strictly behind it, and is suspended until the token comes back.
// A worker whose body returns leaves the phase, and the token goes to the
// most-behind worker still live. Pass(w) hands the token on whatever the
// clocks say, for a spin-wait that cannot finish until another worker runs.
//
// Which worker runs next is a pure function of the virtual clocks and of
// which workers are spinning in Pass, so the interleaving — and with it every
// simulated event — is the same on every host schedule and at any GOMAXPROCS.
// The workers' code needs no ordering of its own beyond one rule: no host lock
// may be held across a safe point, or the suspended holder of that lock would
// stall the worker holding the token. Only the token holder reads or writes
// the clocks and the per-worker state below; the coroutine switches order
// those accesses.
type Group struct {
	clocks []*Clock
	// next is the holder's successor: the live worker other than the holder
	// with the smallest (clock, id), -1 for none. Run sets it before it
	// resumes a worker; the others are suspended while the holder runs, so it
	// holds until the token moves.
	next int
	// live marks the workers still in the phase; started, those that have
	// reached a safe point in it; spinning, those suspended in Pass.
	live, started, spinning []bool
	// suspend[w](to) suspends worker w's coroutine and hands the token to
	// worker to; it reports false when Run is unwinding the phase instead.
	suspend []func(to int) bool
}

// NewGroup returns a scheduler over the workers whose virtual clocks are
// clocks (worker w's is clocks[w]).
func NewGroup(clocks []*Clock) *Group { return &Group{clocks: clocks} }

// unwound is the panic that takes a suspended worker's body down when Run
// unwinds a phase that another body panicked in.
type unwound struct{}

// Panic is what a panic in a body reaches Run's caller as: the worker, the
// value, and the body's stack, which the switch back to Run would lose.
type Panic struct {
	Worker int
	Value  any
	Stack  []byte
}

func (p *Panic) String() string {
	return fmt.Sprintf("worker %d: %v\n\n%s", p.Worker, p.Value, p.Stack)
}

// Run runs body(w) for workers 0..n-1 as one phase under the token and
// returns once every body has returned. The token goes first to the
// most-behind worker. A panic in a body surfaces in Run's caller as a *Panic,
// after the bodies still suspended have been unwound.
func (g *Group) Run(n int, body func(w int)) {
	g.live, g.started, g.spinning = make([]bool, n), make([]bool, n), make([]bool, n)
	g.suspend = make([]func(int) bool, n)
	resume := make([]func() (int, bool), n)
	for w := range resume {
		g.live[w] = true
		next, stop := iter.Pull(func(suspend func(int) bool) {
			defer func() {
				if r := recover(); r != nil && r != (unwound{}) {
					panic(&Panic{w, r, debug.Stack()})
				}
			}()
			g.suspend[w] = suspend
			body(w)
		})
		defer stop()
		resume[w] = next
	}
	for h := g.behind(-1, false); h >= 0; {
		g.next = g.behind(h, false)
		to, ok := resume[h]()
		if !ok {
			g.live[h] = false
			to = g.behind(-1, false)
		}
		h = to
	}
}

// Yield is worker w's safe point: the first time in a phase it keeps the
// token, and otherwise it hands the token to a worker strictly behind w, if
// there is one, and returns when the token comes back. The first time must
// not hand on: a worker resumed by Pass may be ahead of the spinner it
// follows, and handing the token straight back would change the schedule.
func (g *Group) Yield(w int) {
	if !g.started[w] {
		g.started[w] = true
		return
	}
	if n := g.next; n >= 0 && g.clocks[n].Nanos() < g.clocks[w].Nanos() {
		g.park(w, n)
	}
}

// Pass hands the token from worker w, which holds it, to another live
// worker whatever their clocks, and returns when it comes back. A spin-wait
// calls it: the worker it waits for cannot run while w holds the token, and
// w's clock need not move for the rule in Yield to let it.
//
// The token goes to the most-behind other worker that is not itself
// suspended in Pass, so two spinners with frozen clocks cannot hand it back
// and forth while the worker they wait for stays suspended. When every other
// live worker is spinning, it goes to the next of them after w in id order,
// so each spinner looks again at what it waits for before any looks twice.
func (g *Group) Pass(w int) {
	n := g.behind(w, true)
	for i := 1; n < 0 && i < len(g.live); i++ {
		if v := (w + i) % len(g.live); g.live[v] {
			n = v
		}
	}
	if n < 0 {
		return
	}
	g.spinning[w] = true
	g.park(w, n)
	g.spinning[w] = false
}

// park suspends worker w, which hands the token to worker to, until Run
// resumes it.
func (g *Group) park(w, to int) {
	if !g.suspend[w](to) {
		panic(unwound{})
	}
}

// behind returns the live worker other than skip with the smallest (clock,
// id), leaving out the spinners when noSpinners is set, or -1 when there is
// none.
func (g *Group) behind(skip int, noSpinners bool) int {
	m := -1
	for w, ok := range g.live {
		if ok && w != skip && !(noSpinners && g.spinning[w]) && (m < 0 || g.clocks[w].Nanos() < g.clocks[m].Nanos()) {
			m = w
		}
	}
	return m
}
