package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceRingWrapOldestFirst(t *testing.T) {
	tr := NewTracer(1, TraceOptions{RingCap: 8})
	w := tr.Worker(0)
	for i := 0; i < 20; i++ {
		w.Instant(EvWALClaim, uint64(100+i), uint64(i), 0)
	}
	d := tr.Dump()
	if len(d.Events) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(d.Events))
	}
	if d.Dropped != 12 {
		t.Fatalf("dropped = %d, want 12", d.Dropped)
	}
	for i, e := range d.Events {
		if e.Arg != uint64(12+i) {
			t.Fatalf("event %d has arg %d, want %d (oldest-first order)", i, e.Arg, 12+i)
		}
	}
}

func TestTraceHeadSampling(t *testing.T) {
	tr := NewTracer(1, TraceOptions{Sample: 3, RingCap: 256})
	w := tr.Worker(0)
	for i := 0; i < 9; i++ {
		start := uint64(1000 * i)
		w.TxnBegin(uint64(i+1), start)
		w.Span(EvLockWait, start+1, start+5, 7, 2)
		w.TxnEnd(start+100, -1)
	}
	d := tr.Dump()
	var txns, waits int
	for _, e := range d.Events {
		switch e.Kind {
		case EvTxn:
			txns++
		case EvLockWait:
			waits++
		}
	}
	// Transactions 0, 3, 6 are sampled; each contributes its lock-wait span
	// plus its txn span.
	if txns != 3 || waits != 3 {
		t.Fatalf("sampled %d txn / %d lock-wait events, want 3 / 3", txns, waits)
	}
	if d.Sample != 3 {
		t.Fatalf("dump sample = %d, want 3", d.Sample)
	}
}

// TestTraceExemplarsSurviveSparseSampling is the tracer's core promise:
// aborted and slowest-K transactions keep their full span stacks even when
// head sampling discards virtually everything.
func TestTraceExemplarsSurviveSparseSampling(t *testing.T) {
	tr := NewTracer(1, TraceOptions{Sample: 1_000_000, SlowK: 2, AbortCap: 4})
	w := tr.Worker(0)
	for i := 0; i < 10; i++ {
		start := uint64(10_000 * i)
		w.TxnBegin(uint64(i+1), start)
		w.PhaseSeg(PhaseExec, start, start+10)
		w.PhaseSeg(PhaseCC, start+10, start+20)
		reason := -1
		if i == 5 {
			reason = int(AbortLockConflict)
		}
		w.TxnEnd(start+uint64(100+i), reason) // txn i has duration 100+i
	}
	d := tr.Dump()

	// Only transaction 0 was sampled into the ring.
	var ringTxns int
	for _, e := range d.Events {
		if e.Kind == EvTxn {
			ringTxns++
		}
	}
	if ringTxns != 1 {
		t.Fatalf("ring has %d txn events, want 1 (sample rate 1e6)", ringTxns)
	}

	if len(d.Aborted) != 1 {
		t.Fatalf("aborted exemplars = %d, want 1", len(d.Aborted))
	}
	ab := d.Aborted[0]
	if ab.TID != 6 || ab.Abort != AbortLockConflict.String() {
		t.Fatalf("abort exemplar = tid %d reason %q", ab.TID, ab.Abort)
	}
	if len(ab.Events) != 3 { // 2 phase segments + the txn span
		t.Fatalf("abort exemplar kept %d events, want full stack of 3", len(ab.Events))
	}

	// SlowK=2 keeps the two slowest (i=9 dur 109, i=8 dur 108), slowest first.
	if len(d.Slow) != 2 {
		t.Fatalf("slow exemplars = %d, want 2", len(d.Slow))
	}
	if d.Slow[0].Dur() != 109 || d.Slow[1].Dur() != 108 {
		t.Fatalf("slow durations = %d, %d; want 109, 108", d.Slow[0].Dur(), d.Slow[1].Dur())
	}
	if len(d.Slow[0].Events) != 3 {
		t.Fatalf("slow exemplar kept %d events, want 3", len(d.Slow[0].Events))
	}
}

func TestTraceAbortRingBounded(t *testing.T) {
	tr := NewTracer(1, TraceOptions{AbortCap: 3})
	w := tr.Worker(0)
	for i := 0; i < 7; i++ {
		start := uint64(100 * i)
		w.TxnBegin(uint64(i+1), start)
		w.TxnEnd(start+10, int(AbortValidation))
	}
	d := tr.Dump()
	if len(d.Aborted) != 3 {
		t.Fatalf("aborted = %d, want cap 3", len(d.Aborted))
	}
}

func TestTracerNilSafety(t *testing.T) {
	var w *WorkerTracer
	w.TxnBegin(1, 0)
	w.TxnEnd(10, -1)
	w.Span(EvLockWait, 0, 1, 0, 0)
	w.Instant(EvWALClaim, 0, 0, 0)
	w.PhaseSeg(PhaseExec, 0, 1)
	var tr *Tracer
	if tr.Worker(0) != nil {
		t.Fatal("nil tracer must hand out nil workers")
	}
	if tr.Dump() != nil {
		t.Fatal("nil tracer must dump nil")
	}
	// Out-of-range workers are nil too (engines arm only their own threads).
	if NewTracer(2, TraceOptions{}).Worker(5) != nil {
		t.Fatal("out-of-range worker must be nil")
	}
}

// buildGoldenDump assembles a dump exercising every event kind and both
// exemplar stores.
func buildGoldenDump() *TraceDump {
	tr := NewTracer(2, TraceOptions{Sample: 1, SlowK: 2})
	w0 := tr.Worker(0)
	w0.TxnBegin(0x10, 100)
	w0.PhaseSeg(PhaseExec, 100, 150)
	w0.Span(EvLockWait, 150, 170, 42, 3)
	w0.PhaseSeg(PhaseCC, 170, 200)
	w0.Instant(EvWALClaim, 205, 2, 1)
	w0.Span(EvFlushTrain, 210, 240, 5, 1)
	w0.TxnEnd(250, -1)
	w0.TxnBegin(0x11, 300)
	w0.PhaseSeg(PhaseExec, 300, 320)
	w0.TxnEnd(330, int(AbortValidation))
	w1 := tr.Worker(1)
	w1.Span(EvXPEvict, 400, 470, 1, 0x1000)
	w1.Span(EvXPEvict, 480, 500, 0, 0x2000)
	return tr.Dump()
}

// TestChromeTraceGolden is the format contract: the exporter's output must
// satisfy the same schema checks `falcon tracecheck` applies, carry the
// nanosecond display unit, and lay out metadata the way Perfetto expects.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	dumps := []NamedDump{{Label: "golden", Dump: buildGoldenDump()}}
	if err := WriteChromeTrace(&buf, dumps); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exporter output fails its own validator: %v", err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayUnit)
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		counts[ph]++
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	if counts["M"] < 3 { // process_name + two thread_name records at least
		t.Fatalf("metadata events = %d, want >= 3", counts["M"])
	}
	if counts["X"] == 0 {
		t.Fatal("no complete (X) events emitted")
	}
	if counts["i"] == 0 {
		t.Fatal("no instant (i) events emitted")
	}
	for _, want := range []string{"exec", "cc", "lock-wait"} {
		if !names[want] {
			t.Fatalf("exported trace lacks a %q event", want)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []string{
		`{}`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"name":"x","pid":1,"tid":1}]}`,                             // no ph
		`{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1}]}`,                    // X without ts/dur
		`{"traceEvents":[{"name":"x","ph":"M","pid":1,"tid":1}]}`,                    // M without args.name
		`{"traceEvents":[{"name":"x","ph":"?","pid":1,"tid":1,"ts":0}]}`,             // unknown phase
		`{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1,"ts":5,"dur":-1}]}`,    // negative dur
		`{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":5,"dur":1}]}`,                // no name
	}
	for _, s := range bad {
		if err := ValidateChromeTrace([]byte(s)); err == nil {
			t.Errorf("validator accepted %s", s)
		}
	}
}

func TestAutopsyRendering(t *testing.T) {
	d := buildGoldenDump()
	rep := AutopsyReport(d, 4)
	if !strings.Contains(rep, "ABORT") || !strings.Contains(rep, AbortValidation.String()) {
		t.Fatalf("autopsy report lacks the abort verdict:\n%s", rep)
	}
	if !strings.Contains(rep, "exec") || !strings.Contains(rep, "lock-wait") {
		t.Fatalf("autopsy report lacks span lines:\n%s", rep)
	}
	if !strings.Contains(rep, "COMMIT") {
		t.Fatalf("autopsy report lacks the slow committed txn:\n%s", rep)
	}
}
