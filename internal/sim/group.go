package sim

import (
	"sort"
	"sync"
)

// Group is the deterministic round-barrier scheduler behind worker-parallel
// cells (bulk-synchronous, in the spirit of conservative parallel
// discrete-event simulation).
//
// Workers run as real goroutines, each advancing its own virtual clock
// freely while every access it makes stays in worker-private state (private
// timing caches, a private log window, a private concurrency-control word
// overlay). A worker's crossing into shared simulated state — installing a
// commit, publishing versions, retiring heap slots — is *deferred*: the
// worker packages the crossing as an Attempt and parks in Submit. When every
// live worker of the round has submitted (or left), the last arrival replays
// all attempts in canonical merge order — ascending Attempt.Order, which
// callers derive from (virtual time, worker id) — with every other worker
// parked, then releases the round. The replay is single-threaded and its
// order is a pure function of virtual time, so results are byte-identical
// for any host interleaving and any GOMAXPROCS.
//
// A round therefore spans exactly one transaction attempt per worker: a
// worker that aborts against round-frozen state submits an empty attempt and
// retries in the next round (see Engine.Run), preserving the no-wait
// abort-retry cost model in virtual time.
type Group struct {
	mu   sync.Mutex
	cond *sync.Cond
	// replay applies the round's attempts in canonical order. It runs on
	// whichever worker goroutine arrived last, with all other workers parked
	// and g.mu held: it has exclusive access to all shared state.
	replay func(atts []*Attempt)
	// active is the number of workers still running in the current phase.
	active int
	// pending holds this round's submissions.
	pending []*Attempt
	// round increments after each barrier; parked workers wait on it.
	round uint64
}

// Attempt is one worker's deferred crossing into shared state.
type Attempt struct {
	// Order is the canonical merge key: callers pack (virtual time,
	// worker id) so ties across workers cannot occur.
	Order uint64
	// Data is the scheduler-opaque payload (the engine's transaction).
	// Nil marks an empty attempt: a worker that already aborted against
	// round-frozen state and only needs to wait out the round.
	Data any
	// OK carries the replay verdict back to the submitting worker: whether
	// the attempt committed. Why it did not is the payload's business.
	OK bool
}

// NewGroup returns a scheduler that applies each round's attempts with
// replay. See Group for the threading contract.
func NewGroup(replay func(atts []*Attempt)) *Group {
	g := &Group{replay: replay}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Begin opens a phase with n live workers. The caller must be quiescent (no
// worker inside Submit).
func (g *Group) Begin(n int) {
	g.mu.Lock()
	g.active = n
	g.mu.Unlock()
}

// Submit hands in the worker's attempt for this round and parks until the
// round's barrier has replayed it; the verdict is in att.OK on return. The last worker to arrive runs the replay itself.
func (g *Group) Submit(att *Attempt) {
	g.mu.Lock()
	g.pending = append(g.pending, att)
	if len(g.pending) >= g.active {
		g.runBarrierLocked()
	} else {
		r := g.round
		for g.round == r {
			g.cond.Wait()
		}
	}
	g.mu.Unlock()
}

// Leave retires the calling worker from the phase (it finished its quota or
// failed). If it was the last worker the round was waiting on, the barrier
// runs on this goroutine.
func (g *Group) Leave() {
	g.mu.Lock()
	if g.active > 0 {
		g.active--
	}
	if len(g.pending) > 0 && len(g.pending) >= g.active {
		g.runBarrierLocked()
	}
	g.mu.Unlock()
}

// runBarrierLocked replays the round and wakes the parked workers. Called
// with g.mu held.
func (g *Group) runBarrierLocked() {
	atts := g.pending
	g.pending = nil
	sort.Slice(atts, func(i, j int) bool { return atts[i].Order < atts[j].Order })
	if g.replay != nil {
		g.replay(atts)
	}
	g.round++
	g.cond.Broadcast()
}
