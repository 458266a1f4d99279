package sim

// Group is the deterministic scheduler behind worker-parallel cells, in the
// spirit of conservative discrete-event simulation: the workers are real
// goroutines over one shared simulated machine, and exactly one of them runs
// at a time — the one holding the token.
//
// A worker calls Yield(w) at each of its safe points. Its first safe point of
// a phase waits for the token. At every later one it hands the token to the
// live worker with the smallest virtual clock (ties to the lowest id) when
// that worker is strictly behind it, and waits until the token comes back.
// Leave(w) takes the worker out of the phase and passes the token on; a
// worker that never reached a safe point waits for the token first. Pass(w)
// hands the token on whatever the clocks say, for a spin-wait that cannot
// finish until another worker runs.
//
// Which worker runs next is a pure function of the virtual clocks and of
// which workers are spinning in Pass, so the interleaving — and with it every simulated event — is the same on every
// host schedule and at any GOMAXPROCS. The workers' code needs no ordering of
// its own beyond one rule: no host lock may be held across a safe point, or
// the parked holder of that lock would stall the worker holding the token.
//
// Only the token holder reads or writes the live set, the spinning set and
// the clocks; the handoff over wake orders those accesses.
type Group struct {
	clocks []*Clock
	// live marks the workers still in the current phase.
	live []bool
	// next is the holder's successor: the live worker other than the holder
	// with the smallest (clock, id), -1 for none. The others are parked while
	// the holder runs, so it holds until the token moves.
	next int
	// wake[w] carries the token to worker w (capacity one).
	wake []chan struct{}
	// started[w] is set once worker w has waited for the token in this
	// phase. Only worker w touches it while the phase runs.
	started []bool
	// spinning[w] is set while worker w is parked in Pass, waiting for
	// another worker to change what it spins on.
	spinning []bool
}

// NewGroup returns a scheduler over the workers whose virtual clocks are
// clocks (worker w's is clocks[w]).
func NewGroup(clocks []*Clock) *Group {
	g := &Group{
		clocks:   clocks,
		live:     make([]bool, len(clocks)),
		wake:     make([]chan struct{}, len(clocks)),
		started:  make([]bool, len(clocks)),
		spinning: make([]bool, len(clocks)),
	}
	for w := range g.wake {
		g.wake[w] = make(chan struct{}, 1)
	}
	return g
}

// Begin opens a phase with workers 0..n-1 live and hands the token to the
// most-behind of them. The caller must be quiescent: the previous phase's
// workers have all left, and this phase's have not started.
func (g *Group) Begin(n int) {
	for w := range g.live {
		g.live[w], g.started[w], g.spinning[w] = w < n, false, false
	}
	if m := g.behind(-1, false); m >= 0 {
		g.wake[m] <- struct{}{}
	}
}

// Yield is worker w's safe point: it waits for the token the first time and
// otherwise hands it to a worker strictly behind w, if there is one, until it
// returns.
func (g *Group) Yield(w int) {
	if !g.started[w] {
		g.started[w] = true
		g.wait(w)
		return
	}
	if n := g.next; n >= 0 && g.clocks[n].Nanos() < g.clocks[w].Nanos() {
		g.wake[n] <- struct{}{}
		g.wait(w)
	}
}

// Pass hands the token from worker w, which holds it, to another live
// worker whatever their clocks, and waits for it to come back. A spin-wait
// calls it: the worker it waits for cannot run while w holds the token, and
// w's clock need not move for the rule in Yield to let it.
//
// The token goes to the most-behind other worker that is not itself parked
// in Pass, so two spinners with frozen clocks cannot hand it back and forth
// while the worker they wait for stays parked. When every other live worker
// is spinning, it goes to the next of them after w in id order, so each
// spinner looks again at what it waits for before any looks twice.
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
	g.wake[n] <- struct{}{}
	g.wait(w)
	g.spinning[w] = false
}

// Leave takes worker w out of the phase (it finished its quota or failed) and
// passes the token to the most-behind worker still live.
func (g *Group) Leave(w int) {
	if !g.started[w] {
		g.started[w] = true
		<-g.wake[w]
	}
	g.live[w] = false
	if m := g.behind(-1, false); m >= 0 {
		g.wake[m] <- struct{}{}
	}
}

// wait parks worker w until the token reaches it, then picks its successor.
func (g *Group) wait(w int) {
	<-g.wake[w]
	g.next = g.behind(w, false)
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
