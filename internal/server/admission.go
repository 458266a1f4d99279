package server

import (
	"sync/atomic"
	"time"
)

// admission is the controller in front of the engine-worker slots: a bound on
// admitted requests plus an EWMA service-time estimate. It sheds BEFORE
// saturation: a request is rejected when that bound is reached, or when the
// estimated wait for a slot already exceeds the request's deadline — letting
// it wait would only manufacture a timeout storm. Rejections carry a
// Retry-After hint sized to the estimated drain time.
type admission struct {
	depth    atomic.Int64  // requests admitted but not yet completed
	capacity int64         // bound on admitted requests, waiting for a slot + running
	workers  int64         // engine-worker slots (service parallelism)
	ewma     atomic.Uint64 // service-time estimate, host nanos
	draining atomic.Bool
}

// shedReason classifies an admission rejection.
type shedReason int

const (
	shedNone shedReason = iota
	shedDraining
	shedQueue
	shedDeadline
)

func newAdmission(capacity, workers int, seedServiceNanos uint64) *admission {
	a := &admission{capacity: int64(capacity), workers: int64(workers)}
	a.ewma.Store(seedServiceNanos)
	return a
}

// admit decides whether a request with the given deadline may enter the
// queue. On success the depth is already incremented (release undoes it).
// On a shed it returns the reason and a suggested retry-after duration.
func (a *admission) admit(now, deadline time.Time) (shedReason, time.Duration) {
	if a.draining.Load() {
		return shedDraining, a.estWait(1)
	}
	d := a.depth.Add(1)
	if d > a.capacity {
		a.depth.Add(-1)
		return shedQueue, a.estWait(a.capacity)
	}
	// Deadline-aware rejection: with d-1 requests ahead and `workers`-way
	// service, the expected wait is ceil((d-1)/workers) service times; if
	// even starting execution would blow the deadline, shed now instead of
	// queuing into a timeout.
	wait := a.estWait(d - 1)
	if deadline.Before(now.Add(wait + time.Duration(a.ewma.Load()))) {
		a.depth.Add(-1)
		return shedDeadline, wait
	}
	return shedNone, 0
}

// release takes a finished request out of the admitted count.
func (a *admission) release() { a.depth.Add(-1) }

// estWait estimates the queue wait with `ahead` admitted requests in front.
func (a *admission) estWait(ahead int64) time.Duration {
	if ahead <= 0 {
		return 0
	}
	rounds := (ahead + a.workers - 1) / a.workers
	return time.Duration(rounds * int64(a.ewma.Load()))
}

// observe folds one completed request's service time into the EWMA
// (alpha = 1/8: new = old*7/8 + sample/8, lock-free via CAS-less store —
// the estimate tolerates lost updates).
func (a *admission) observe(serviceNanos uint64) {
	old := a.ewma.Load()
	a.ewma.Store(old - old/8 + serviceNanos/8)
}
