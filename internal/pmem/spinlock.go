package pmem

import (
	"runtime"
	"sync/atomic"
)

// lockWord and unlockWord are a test-and-set spinlock on a bare word, for the
// simulation's hottest critical sections (cache sets, XPBuffer banks). Those
// sections run for tens of nanoseconds, the lock spaces are heavily striped
// (thousands of sets, 16 banks), and every simulated memory access takes one
// — at that grain sync.Mutex's unlock (an atomic add plus wake check) is a
// measurable slice of sweep host time, while a release store is nearly free.
//
// Tens of nanoseconds is how long a holder runs, not how long a waiter waits:
// a holder that loses its processor inside the section keeps the word until
// it is scheduled again. Timed in a scratch copy over one 10 s tpcc_mix run
// of the benchmark (two workers, two cores), 38 000 slow-path waits: 33 000
// under 1 µs, but 202 of 2–8 ms — that run's 8 ms p99.9 next to a 0.22 ms
// median. What descheduled the holders was the scheduler churn of workers
// parking on the B+-tree's lock (three parks per call). With the tree's readers
// lock-free the same run makes 54 % more calls and has 74 waits of 2 ms or
// more (p99.9 4.2 ms); the rest are the collector and the runtime's own
// goroutines taking a processor from a holder ("B+-tree readers without the
// tree lock" in `git show 17625b4:EXPERIMENTS.md`).
// The lock is a plain uint64 rather than an atomic type so that a cache set's
// lock can be a word of its flat set block (see Cache.meta); it must only
// ever be accessed through these functions and atomic loads.
//
// The slow path yields to the scheduler rather than parking: with critical
// sections this short, a contended acquirer is overwhelmingly likely to get
// the lock within a few spins, and on a single-core host Gosched lets the
// holder run instead of burning the preemption slice.
//
// lockWord is split from lockWordSlow so the uncontended path — a single
// CAS — inlines into loadLine/storeLine; the loop would push it past the
// inlining budget.
func lockWord(l *uint64) {
	if !atomic.CompareAndSwapUint64(l, 0, 1) {
		lockWordSlow(l)
	}
}

func lockWordSlow(l *uint64) {
	for spins := 0; !atomic.CompareAndSwapUint64(l, 0, 1); spins++ {
		if spins >= 16 {
			runtime.Gosched()
			spins = 0
		}
	}
}

func unlockWord(l *uint64) {
	atomic.StoreUint64(l, 0)
}
