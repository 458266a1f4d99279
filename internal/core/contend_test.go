package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"falcon/internal/cc"
	"falcon/internal/obs"
)

// contendHotKey is the planted hot key every writer hammers; the observatory
// must attribute the bulk of the conflicts to it.
const contendHotKey = 3

// newContendEngine builds a preloaded kv engine with the contention
// observatory armed: 256 keys inserted in free-running mode, clocks and
// counters reset, then armed while quiescent.
func newContendEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := newKVEngine(t, cfg)
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 256; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.ResetClocks()
	e.ResetCounters()
	e.Arm(nil, e.NewObservatory())
	return e
}

// contendHotKeyLoop is one worker's share of the planted-hot-key workload:
// mostly read-modify-writes of the hot key (guaranteed write-write contention
// under every CC algorithm), with uniform cold reads mixed in so the
// popularity buckets separate hot from cold. The Gosched between read and
// write parks the goroutine mid-transaction so the window overlaps other
// workers even on a single-CPU host.
func contendHotKeyLoop(e *Engine, w, iters int) {
	tbl := e.Table("kv")
	s := tbl.Schema()
	rng := rand.New(rand.NewSource(int64(w)*104729 + 7))
	buf := make([]byte, s.TupleSize())
	for i := 0; i < iters; i++ {
		if i%4 != 3 {
			var v [8]byte
			v[0] = byte(i)
			v[1] = byte(w)
			_ = e.Run(w, func(tx *Txn) error {
				if err := tx.ReadForUpdate(tbl, contendHotKey, buf); err != nil {
					return err
				}
				runtime.Gosched()
				return tx.UpdateField(tbl, contendHotKey, 1, v[:])
			})
		} else {
			key := uint64(rng.Intn(256))
			_ = e.RunRO(w, func(tx *Txn) error { return tx.Read(tbl, key, buf) })
		}
	}
}

// checkHotKeyReport asserts the observatory saw the planted contention and
// pinned it on the kv table at a high popularity bucket.
func checkHotKeyReport(t *testing.T, rep *obs.ContentionStats) {
	t.Helper()
	if rep == nil {
		t.Fatal("armed engine returned no contention report")
	}
	if rep.TotalConflicts() == 0 {
		t.Fatal("planted hot key produced zero attributed conflicts")
	}
	top := rep.Attribution[0]
	if top.Table != "kv" {
		t.Fatalf("top conflict row attributed to table %q, want kv", top.Table)
	}
	if top.Kind == "" {
		t.Error("top conflict row has no conflict kind")
	}
	// Popularity is bucketed at conflict time, so the hot key's conflicts
	// spread across buckets as its touch count climbs — but each worker
	// touches it ~100 times vs ~1 per cold key, so conflicts must reach a
	// bucket no cold key can (cold keys stay in buckets 0-2).
	maxBucket := 0
	for _, row := range rep.Attribution {
		if row.Table == "kv" && row.PopBucket > maxBucket {
			maxBucket = row.PopBucket
		}
	}
	if maxBucket < 3 {
		t.Errorf("hottest conflict bucket is %d; the planted hot key should push conflicts to bucket >= 3", maxBucket)
	}
}

// TestContendPlantedHotKeyAllCC runs the planted-hot-key workload
// free-running under every CC algorithm and checks the attribution report.
func TestContendPlantedHotKeyAllCC(t *testing.T) {
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := FalconConfig()
			cfg.CC = algo
			e := newContendEngine(t, cfg)
			// A fully serialized host schedule can dodge conflicts; the
			// observatory accumulates, so re-run until contention appears.
			for round := 0; round < 3; round++ {
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						contendHotKeyLoop(e, w, 200)
					}(w)
				}
				wg.Wait()
				if e.Contend().Report().TotalConflicts() > 0 {
					break
				}
			}
			checkHotKeyReport(t, e.Contend().Report())
			e.Arm(nil, nil)
		})
	}
}

// contendGroupReport runs the planted-hot-key workload in deterministic group
// mode at the given GOMAXPROCS and returns the JSON-marshalled contention
// report. Group mode fully orders the schedule, so the report — conflict
// counts, wait nanos, heat rings, wait-for edges — must not depend on procs.
func contendGroupReport(t *testing.T, algo cc.Algo, procs int) ([]byte, *obs.ContentionStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := FalconConfig()
	cfg.CC = algo
	e := newContendEngine(t, cfg)
	const workers = 4
	e.EnterGroup()
	e.Group().Begin(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer e.Group().Leave(w)
			contendHotKeyLoop(e, w, 120)
		}(w)
	}
	wg.Wait()
	e.LeaveGroup()
	rep := e.Contend().Report()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	e.Arm(nil, nil)
	return b, rep
}

// TestContendGroupModeDeterministicAllCC checks the observatory's
// determinism contract: in group mode the full contention report is
// byte-identical across host schedules (GOMAXPROCS 1 vs 4) for every CC
// algorithm, and the planted hot key is still attributed.
func TestContendGroupModeDeterministicAllCC(t *testing.T) {
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			serial, rep := contendGroupReport(t, algo, 1)
			par, _ := contendGroupReport(t, algo, 4)
			if !bytes.Equal(serial, par) {
				t.Fatalf("contention report differs across host schedules (GOMAXPROCS 1 vs 4):\n%s\n--- vs ---\n%s", serial, par)
			}
			checkHotKeyReport(t, rep)
		})
	}
}

// TestContendDisarmedOverhead gates the nil-pointer degradation cost: an
// engine whose tracer and observatory were both armed and then disarmed must
// run within 2% of one that was never armed. Host-time measurement, so it
// interleaves min-of-N rounds
// (min damps scheduler noise) and retries before failing.
func TestContendDisarmedOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("host-time gate; skipped under -short")
	}
	build := func(arm bool) *Engine {
		e := newKVEngine(t, FalconConfig())
		tbl := e.Table("kv")
		s := tbl.Schema()
		for k := uint64(0); k < 256; k++ {
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if arm {
			e.Arm(obs.NewTracer(e.Config().Threads, obs.TraceOptions{}), e.NewObservatory())
			e.Arm(nil, nil) // the disarmed state under test
		}
		return e
	}
	measure := func(e *Engine, txns int) time.Duration {
		tbl := e.Table("kv")
		var v [8]byte
		start := time.Now()
		for i := 0; i < txns; i++ {
			v[0] = byte(i)
			_ = e.Run(0, func(tx *Txn) error {
				return tx.UpdateField(tbl, uint64(i%256), 1, v[:])
			})
		}
		return time.Since(start)
	}
	never, disarmed := build(false), build(true)
	const txns, rounds, attempts = 4000, 6, 5
	measure(never, txns) // warm both paths before timing
	measure(disarmed, txns)
	worst := 0.0
	for a := 0; a < attempts; a++ {
		minNever, minDisarmed := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < rounds; r++ {
			if d := measure(never, txns); d < minNever {
				minNever = d
			}
			if d := measure(disarmed, txns); d < minDisarmed {
				minDisarmed = d
			}
		}
		ratio := float64(minDisarmed) / float64(minNever)
		if ratio <= 1.02 {
			return
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Errorf("disarmed instrumentation costs %.1f%% over never-armed (gate: 2%%)", (worst-1)*100)
}
