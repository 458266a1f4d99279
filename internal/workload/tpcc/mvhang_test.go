package tpcc_test

import (
	"runtime"
	"testing"
	"time"

	"falcon/internal/bench"
	"falcon/internal/cc"
)

// TestMVMixFinishesFreeRunning: four free-running workers of the mix finish
// under every multi-version algorithm on every preset, on the database that
// `falcon tpcc -threads 4 -warehouses 2` loads. The figure commands run their
// workers under the group-mode token, so this is where free-running TPC-C
// workers meet. A read-only scan's callback may spin
// for a writer that is applying its write set (snapshotReadSlotSpin), and that
// writer stores into the same B-tree (applyInsert's Insert; the out-of-place
// commit's Update of the customer's secondary key): when Scan held the tree's
// read lock across its callbacks, the writer queued on the write lock behind
// the scanner that was waiting for it, and `falcon tpcc -cc MV2PL -threads 4`
// hung on the Outp row in two runs of three. Nobody joins a hung worker, so
// the test waits under a deadline of its own and fails with the goroutine
// dump.
//
// With the hang gone the multi-version paths run to the end, and two races
// they hid fail this test by a worker's error: the out-of-place commit
// repointed the primary index before the secondary (Payment: "key not found",
// or a Payment retrying for good; see TestOutpRepointsSecondaryBeforePrimary
// in core), and a snapshot read took a tuple for newer than its snapshot when
// the writer it had waited for finished between its look at the version chain
// and its second look at the lock word (StockLevel: "key not found"; three
// runs of three under make race-par).
//
// The race lane (-short) runs Falcon and Outp only, at an eighth of the calls.
func TestMVMixFinishesFreeRunning(t *testing.T) {
	calls, deadline := 3200, 90*time.Second
	if testing.Short() {
		calls = 400 // the race lane: ten times slower per call
	}
	cfg := bench.DefaultTPCC
	cfg.Warehouses = 2
	for _, algo := range []cc.Algo{cc.MV2PL, cc.MVTO, cc.MVOCC} {
		for _, ecfg := range bench.EngineConfigs() {
			if testing.Short() && ecfg.Name != "Falcon" && ecfg.Name != "Outp" {
				continue
			}
			t.Run(ecfg.Name+"/"+algo.String(), func(t *testing.T) {
				ecfg.CC, ecfg.Threads = algo, 4
				_, d, err := bench.NewTPCC(ecfg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				errs := make(chan error, 4) // one send per worker
				for w := 0; w < 4; w++ {
					go func() {
						for i := 0; i < calls; i++ {
							if err := d.Next(w); err != nil {
								errs <- err
								return
							}
						}
						errs <- nil
					}()
				}
				expired := time.After(deadline)
				for w := 0; w < 4; w++ {
					select {
					case err := <-errs:
						if err != nil {
							t.Error(err)
						}
					case <-expired:
						buf := make([]byte, 1<<20)
						t.Fatalf("workers still running after %v:\n%s", deadline, buf[:runtime.Stack(buf, true)])
					}
				}
			})
		}
	}
}
