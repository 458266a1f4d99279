package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBeginPublishesHorizonBeforeDrawingTID is the regression test for the
// begin/horizon race: begin used to draw its TID and only then register it in
// the active set, so a Min() taken in between saw the worker as idle and could
// return a horizon above a TID that was already drawn — version GC and slot
// reclaim then drop what that snapshot still reads.
//
// The invariant, with no hook inside begin: read the TID clock (g0), take
// Min() = m, then look at the first transaction of the beginning worker that
// had not started to end when Min returned. If its TID was drawn at or before
// g0, it was drawn-and-unfinished for the whole of Min, so m must not exceed
// it. (A TID drawn after g0 proves nothing: Min may have run first.)
func TestBeginPublishesHorizonBeforeDrawingTID(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := newKVEngine(t, FalconConfig())

	const ring = 1 << 16
	txns := 400_000
	if testing.Short() {
		txns = 150_000
	}
	var (
		tids      [ring]atomic.Uint64
		published atomic.Uint64 // transactions whose TID is in tids
		ending    atomic.Uint64 // transactions that have started to end
		wg        sync.WaitGroup
		checked   atomic.Uint64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= uint64(txns); i++ {
			tx := e.BeginRO(0)
			tids[i%ring].Store(tx.TID())
			published.Store(i)
			ending.Store(i)
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for o := 0; o < 3; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ending.Load() < uint64(txns) {
				g0 := e.gen.Seq()
				m := e.active.Min()
				next := ending.Load() + 1 // not ending yet when Min returned
				for published.Load() < next {
					if next > uint64(txns) {
						return
					}
					runtime.Gosched()
				}
				tid := tids[next%ring].Load()
				if published.Load() >= next+ring {
					continue // lapped: the ring entry is a later transaction's
				}
				if tid>>8 > g0 {
					continue
				}
				checked.Add(1)
				if m > tid {
					t.Errorf("Min() = %#x exceeds TID %#x, which was already drawn (clock %d) and still running", m, tid, g0)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d in-flight transactions checked against a concurrent Min()", checked.Load())
}
