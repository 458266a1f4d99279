package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func testConfig(workers int) ObservatoryConfig {
	return ObservatoryConfig{
		Workers: workers,
		Algo:    "2PL",
		Tables:  []string{"kv", "aux"},
		Banks:   8,
	}
}

// armedProbes returns one probe per shard of o, armed on it alone — the
// only way events reach a shard.
func armedProbes(o *Observatory) []Probe {
	ps := make([]Probe, len(o.workers))
	for w := range ps {
		ps[w].Arm(nil, o, w)
	}
	return ps
}

// drive replays worker w's deterministic event stream into its probe. The
// same function serves the concurrent hammer and the serial replay, so any
// divergence between the two reports is a merge bug, not a stream bug.
func drive(rec *Probe, w, events int) {
	state := uint64(w)*0x9E3779B97F4A7C15 + 1
	rng := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < events; i++ {
		table := int(rng() % 2)
		key := rng() % 64 // small key space: popularity buckets fill up
		rec.Touch(table, key)
		switch rng() % 5 {
		case 0:
			rec.Conflict(table, key, key, ConflictLockFail, int(rng()%4), uint64(i))
		case 1:
			rec.Conflict(table, key, key, ConflictTSOrder, -1, uint64(i))
		case 2:
			holder, wait := int(rng()%4), rng()%1000
			rec.SpinWait(table, key, key, holder, uint64(i), uint64(i)+wait, 1)
		case 3:
			rec.Flush(pmem.FlushKind(rng()%5), rng()%(1<<20), 0, 0)
		case 4:
			rec.LogicalBytes(uint64(table), rng()%256)
		}
	}
	rec.FlushTrain(0, 0, uint64(w)+1)
}

// TestConcurrentMergeEqualsSerialReplay hammers the sharded recorders from
// GOMAXPROCS goroutines and checks the merged report is byte-identical to a
// serial replay of the same per-worker streams — the single-owner shard
// discipline holds and the merge is order-independent.
func TestConcurrentMergeEqualsSerialReplay(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const events = 20000

	conc := NewObservatory(testConfig(workers))
	conc.AddRange("kv", 0, 1<<19)
	conc.AddRange("aux", 1<<19, 1<<20)
	probes := armedProbes(conc)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drive(&probes[w], w, events)
		}(w)
	}
	wg.Wait()

	serial := NewObservatory(testConfig(workers))
	serial.AddRange("kv", 0, 1<<19)
	serial.AddRange("aux", 1<<19, 1<<20)
	probes = armedProbes(serial)
	for w := 0; w < workers; w++ {
		drive(&probes[w], w, events)
	}

	got, err := json.Marshal(conc.Report())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial.Report())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("concurrent merge diverged from serial replay:\nconcurrent: %.400s\nserial:     %.400s", got, want)
	}
	if conc.Report().TotalConflicts() == 0 {
		t.Fatal("hammer recorded no conflicts; the test drove nothing")
	}
}

// TestPopularityBuckets checks the log2 bucketing: a key touched 2^k times
// lands in bucket k+1 and an untouched key in bucket 0.
func TestPopularityBuckets(t *testing.T) {
	o := NewObservatory(testConfig(1))
	p := &armedProbes(o)[0]
	for i := 0; i < 8; i++ { // 8 = 2^3 touches → bits.Len32(8) = 4
		p.Touch(0, 42)
	}
	w := o.shard(0)
	if got := w.popBucket(0, 42); got != 4 {
		t.Fatalf("popBucket(touched 8×) = %d, want 4", got)
	}
	if got := w.popBucket(0, 999); got != 0 {
		t.Fatalf("popBucket(untouched) = %d, want 0", got)
	}
}

// TestReportShape checks the merged report carries every section a driven
// observatory should produce, with attribution rows sorted by count.
func TestReportShape(t *testing.T) {
	o := NewObservatory(testConfig(2))
	o.AddRange("kv", 0, 1<<16)
	probes := armedProbes(o)
	w0, w1 := &probes[0], &probes[1]

	for i := 0; i < 10; i++ {
		w0.Touch(0, 7)
	}
	for i := 0; i < 10; i++ {
		w0.Conflict(0, 7, 7, ConflictLockFail, 1, uint64(i))
	}
	w1.Conflict(1, 3, 3, ConflictValidation, 0, 1)
	w0.Flush(pmem.FlushClwb, 128, 0, 0)
	w1.Flush(pmem.FlushXPFull, 512, 0, 0)
	w0.LogicalBytes(0, 100)

	c := o.Report()
	if c.Algo != "2PL" {
		t.Fatalf("algo = %q", c.Algo)
	}
	if len(c.Attribution) != 2 {
		t.Fatalf("attribution rows = %d, want 2", len(c.Attribution))
	}
	top := c.Attribution[0]
	if top.Table != "kv" || top.Kind != "lock-fail" || top.Conflicts != 10 {
		t.Fatalf("top row = %+v", top)
	}
	if top.PopBucket == 0 {
		t.Fatal("hot key attributed to the never-seen popularity bucket")
	}
	if c.Heat == nil || c.Heat.Buckets == 0 {
		t.Fatal("missing heat dump")
	}
	if len(c.FlushAmp) == 0 || c.FlushAmp[0].Table != "kv" {
		t.Fatalf("flush-amp rows = %+v", c.FlushAmp)
	}
	if c.FlushAmp[0].LogicalBytes != 100 || c.FlushAmp[0].ClwbLines != 1 {
		t.Fatalf("flush-amp cell = %+v", c.FlushAmp[0])
	}
	if len(c.BankEvictions) != 8 || c.SetContention.Count != 8 {
		t.Fatalf("set contention: banks %d hist count %d", len(c.BankEvictions), c.SetContention.Count)
	}
	wf := c.WaitFor
	if wf == nil || wf.Workers != 2 {
		t.Fatalf("wait-for = %+v", wf)
	}
	// w0→w1 and w1→w0 form a 2-cycle.
	if len(wf.Edges) != 2 || len(wf.Cycles) != 1 {
		t.Fatalf("edges %d cycles %d", len(wf.Edges), len(wf.Cycles))
	}
	if wf.Hot[0].Worker != 1 || wf.Hot[0].In != 10 {
		t.Fatalf("hot vertex = %+v", wf.Hot[0])
	}
}

// TestConflictExemplarIsSlowestAttempt co-arms a tracer and an observatory and
// plants conflicts of several lengths, some in attempts that run on long after
// theirs or never conflict at all. Each attribution row's exemplar must be its
// slowest conflicting attempt, measured to the conflict: it ends at that
// conflict's virtual time and holds the attempt's spans up to then, not the
// segment still open.
func TestConflictExemplarIsSlowestAttempt(t *testing.T) {
	cfg := testConfig(2)
	tr := NewTracer(cfg.Workers, TraceOptions{})
	o := NewObservatory(cfg)
	probes := make([]Probe, cfg.Workers)
	clks := make([]*sim.Clock, cfg.Workers)
	for w := range probes {
		probes[w].Arm(tr, o, w)
		clks[w] = sim.NewClock()
	}

	// want models each row's exemplar: the attempt with the longest run up to
	// its conflict, the first of equals on a worker.
	want := map[string]Exemplar{}
	// attempt runs one attempt on worker w: exec for execNs, then cc for ccNs,
	// then the conflict (for a spin-wait, a stall of waitNs), then tailNs more
	// before it ends. A kind past the last conflicts nowhere.
	attempt := func(w int, tid uint64, table int, kind ConflictKind, execNs, ccNs, waitNs, tailNs uint64) {
		p, clk := &probes[w], clks[w]
		p.Begin(tid, clk)
		start := clk.Nanos()
		clk.Advance(execNs)
		p.To(PhaseCC)
		spans := []Event{{Kind: EvPhase, Phase: PhaseExec, Start: start, End: clk.Nanos()}}
		clk.Advance(ccNs)
		if kind < NumConflictKinds {
			if kind == ConflictSpinWait {
				from := clk.Nanos()
				clk.Advance(waitNs)
				spans = append(spans, Event{Kind: EvLockWait, Start: from, End: clk.Nanos()})
				p.SpinWait(table, 7, 7, 1-w, from, clk.Nanos(), 3)
			} else {
				p.Conflict(table, 7, 7, kind, 1-w, clk.Nanos())
			}
			row := cfg.Tables[table] + "/" + kind.String()
			if cur, ok := want[row]; !ok || clk.Nanos()-start > cur.Dur() {
				want[row] = Exemplar{Worker: w, TID: tid, Start: start, End: clk.Nanos(), Abort: kind.String(), Events: spans}
			}
		}
		clk.Advance(tailNs)
		p.End(kind >= NumConflictKinds, AbortLockConflict)
	}

	attempt(0, 1, 0, ConflictLockFail, 30, 10, 0, 5)
	attempt(0, 2, 0, ConflictLockFail, 50, 40, 0, 5)   // slowest kv lock-fail on worker 0
	attempt(0, 3, 0, ConflictLockFail, 10, 5, 0, 5000) // long, but conflicts early
	attempt(0, 4, 0, ConflictLockFail, 60, 30, 0, 5)   // as slow as tid 2: the first stays
	attempt(0, 5, 0, NumConflictKinds, 900, 900, 0, 5) // slowest of all, never conflicts
	attempt(0, 6, 1, ConflictValidation, 20, 20, 0, 5)
	attempt(1, 11, 0, ConflictLockFail, 70, 40, 0, 5) // slower than worker 0's best
	attempt(1, 12, 1, ConflictSpinWait, 15, 5, 200, 5)
	attempt(1, 13, 1, ConflictSpinWait, 15, 5, 100, 5000)
	attempt(1, 14, 1, ConflictValidation, 10, 20, 0, 5)

	rep := o.Report()
	if len(rep.Attribution) != len(want) {
		t.Fatalf("attribution rows = %d, want %d", len(rep.Attribution), len(want))
	}
	for _, r := range rep.Attribution {
		row := r.Table + "/" + r.Kind
		w, ok := want[row]
		if !ok {
			t.Fatalf("unexpected attribution row %s", row)
		}
		ex := r.Exemplar
		if ex == nil {
			t.Fatalf("%s: no exemplar", row)
		}
		if ex.Worker != w.Worker || ex.TID != w.TID || ex.Start != w.Start || ex.End != w.End || ex.Abort != w.Abort {
			t.Errorf("%s: exemplar worker %d tid %d [%d, %d] %q; want worker %d tid %d [%d, %d] %q",
				row, ex.Worker, ex.TID, ex.Start, ex.End, ex.Abort, w.Worker, w.TID, w.Start, w.End, w.Abort)
		}
		if len(ex.Events) != len(w.Events) {
			t.Fatalf("%s: exemplar holds %d spans, want %d: %+v", row, len(ex.Events), len(w.Events), ex.Events)
		}
		for i, e := range ex.Events {
			x := w.Events[i]
			if e.Kind != x.Kind || e.Phase != x.Phase || e.Start != x.Start || e.End != x.End || e.TID != w.TID {
				t.Errorf("%s: span %d = %s/%s [%d, %d] tid %d; want %s/%s [%d, %d] tid %d",
					row, i, e.Kind, e.Phase, e.Start, e.End, e.TID, x.Kind, x.Phase, x.Start, x.End, w.TID)
			}
		}
	}
}
