package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// NamedDump pairs a trace dump with the label of the run (engine/workload
// cell) that produced it. Exporting several dumps into one file puts each on
// its own Perfetto process track.
type NamedDump struct {
	Label string
	Dump  *TraceDump
}

// chromeEvent is one entry of the Chrome trace-event format ("JSON Object
// Format" with a traceEvents array), which Perfetto and chrome://tracing
// load directly. Timestamps and durations are microseconds (doubles); we map
// virtual nanoseconds onto them so the UI's microsecond axis reads as
// virtual time.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// pids within one dump: main worker tracks, then the two exemplar tracks.
// Several dumps stack at pidStride intervals.
const (
	pidMain      = 1
	pidSlow      = 2
	pidAborted   = 3
	pidStride    = 4
	microPerNano = 1e-3
)

// WriteChromeTrace renders the dumps as Chrome trace-event JSON: per dump,
// one process with a thread per worker (virtual-time axis), plus separate
// processes carrying the slowest-K and aborted-transaction exemplars.
func WriteChromeTrace(w io.Writer, dumps []NamedDump) error {
	var out chromeTrace
	out.DisplayTimeUnit = "ns"
	for i, nd := range dumps {
		if nd.Dump == nil {
			continue
		}
		base := i * pidStride
		out.TraceEvents = append(out.TraceEvents, chromeDumpEvents(base, nd)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

func chromeDumpEvents(base int, nd NamedDump) []chromeEvent {
	d := nd.Dump
	label := nd.Label
	if label == "" {
		label = "trace"
	}
	var evs []chromeEvent
	meta := func(pid int, name string) {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": name},
		})
	}
	meta(base+pidMain, label)
	threads := map[[2]int]bool{}
	thread := func(pid, tid int, name string) {
		key := [2]int{pid, tid}
		if threads[key] {
			return
		}
		threads[key] = true
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for w := 0; w < d.Workers; w++ {
		thread(base+pidMain, w, fmt.Sprintf("worker %d", w))
	}
	for i := range d.Events {
		evs = append(evs, chromeEventFor(base+pidMain, &d.Events[i]))
	}
	if len(d.Slow) > 0 {
		meta(base+pidSlow, label+" · slowest-K exemplars")
		for i := range d.Slow {
			ex := &d.Slow[i]
			thread(base+pidSlow, ex.Worker, fmt.Sprintf("worker %d", ex.Worker))
			evs = append(evs, chromeExemplarEvents(base+pidSlow, ex)...)
		}
	}
	if len(d.Aborted) > 0 {
		meta(base+pidAborted, label+" · aborted exemplars")
		for i := range d.Aborted {
			ex := &d.Aborted[i]
			thread(base+pidAborted, ex.Worker, fmt.Sprintf("worker %d", ex.Worker))
			evs = append(evs, chromeExemplarEvents(base+pidAborted, ex)...)
		}
	}
	return evs
}

func chromeExemplarEvents(pid int, ex *Exemplar) []chromeEvent {
	out := make([]chromeEvent, 0, len(ex.Events))
	for i := range ex.Events {
		ce := chromeEventFor(pid, &ex.Events[i])
		out = append(out, ce)
	}
	return out
}

func chromeEventFor(pid int, e *Event) chromeEvent {
	ce := chromeEvent{
		Cat: e.Kind.String(),
		Pid: pid,
		Tid: int(e.Worker),
		Ts:  float64(e.Start) * microPerNano,
		Args: map[string]any{
			"virtual_start_ns": e.Start,
			"host_ns":          e.Host,
		},
	}
	switch e.Kind {
	case EvTxn:
		ce.Name = fmt.Sprintf("txn %#x", e.TID)
		if e.Abort != 0 {
			ce.Name = fmt.Sprintf("txn %#x ABORT %s", e.TID, AbortReason(e.Abort-1))
			ce.Args["abort"] = AbortReason(e.Abort - 1).String()
		}
	case EvPhase:
		ce.Name = e.Phase.String()
	case EvLockWait:
		ce.Name = "lock-wait"
		ce.Args["slot"] = e.Arg
	case EvWALClaim:
		ce.Name = "wal-claim"
		if e.Arg2 != 0 {
			ce.Name = "wal-claim (wrap)"
		}
		ce.Args["slot"] = e.Arg
	case EvXPEvict:
		ce.Name = "xp-evict partial"
		if e.Arg != 0 {
			ce.Name = "xp-evict full"
		}
		ce.Args["block"] = e.Arg2
	case EvFlushTrain:
		ce.Name = fmt.Sprintf("flush-train (%d lines)", e.Arg)
		ce.Args["lines"] = e.Arg
		ce.Args["elided"] = e.Arg2
	case EvEpochSeal:
		ce.Name = fmt.Sprintf("epoch-seal #%d (%d records)", e.Arg, e.Arg2)
		ce.Args["epoch"] = e.Arg
		ce.Args["records"] = e.Arg2
	default:
		ce.Name = e.Kind.String()
	}
	if e.End > e.Start {
		ce.Ph = "X"
		dur := float64(e.End-e.Start) * microPerNano
		ce.Dur = &dur
	} else {
		ce.Ph = "i"
		ce.Scope = "t"
	}
	return ce
}

// ValidateChromeTrace checks that data parses as Chrome trace-event JSON:
// a traceEvents array whose entries carry the fields each phase type
// requires. It is the schema check shared by the golden test and the
// `falcon tracecheck` tool.
func ValidateChromeTrace(data []byte) error {
	var raw struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("not JSON: %w", err)
	}
	if raw.TraceEvents == nil {
		return fmt.Errorf("missing traceEvents array")
	}
	if len(raw.TraceEvents) == 0 {
		return fmt.Errorf("empty traceEvents array")
	}
	for i, ev := range raw.TraceEvents {
		var ph string
		if err := jsonField(ev, "ph", &ph); err != nil {
			return fmt.Errorf("event %d: %v", i, err)
		}
		var name string
		if err := jsonField(ev, "name", &name); err != nil {
			return fmt.Errorf("event %d (ph=%s): %v", i, ph, err)
		}
		var pid, tid float64
		if err := jsonField(ev, "pid", &pid); err != nil {
			return fmt.Errorf("event %d (%s): %v", i, name, err)
		}
		if err := jsonField(ev, "tid", &tid); err != nil {
			return fmt.Errorf("event %d (%s): %v", i, name, err)
		}
		switch ph {
		case "M":
			// Metadata events need args.name.
			var args struct {
				Name *string `json:"name"`
			}
			if err := json.Unmarshal(ev["args"], &args); err != nil || args.Name == nil {
				return fmt.Errorf("event %d: metadata without args.name", i)
			}
		case "X":
			var ts, dur float64
			if err := jsonField(ev, "ts", &ts); err != nil {
				return fmt.Errorf("event %d (%s): %v", i, name, err)
			}
			if err := jsonField(ev, "dur", &dur); err != nil {
				return fmt.Errorf("event %d (%s): %v", i, name, err)
			}
			if dur < 0 {
				return fmt.Errorf("event %d (%s): negative dur", i, name)
			}
		case "i", "I":
			var ts float64
			if err := jsonField(ev, "ts", &ts); err != nil {
				return fmt.Errorf("event %d (%s): %v", i, name, err)
			}
		default:
			return fmt.Errorf("event %d (%s): unsupported ph %q", i, name, ph)
		}
	}
	return nil
}

func jsonField(ev map[string]json.RawMessage, key string, dst any) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("bad %q: %v", key, err)
	}
	return nil
}

// Autopsy renders one exemplar as a compact text timeline: the transaction
// header (outcome, virtual window, duration) followed by each captured
// event, offset-relative so the commit path reads top to bottom.
func Autopsy(ex *Exemplar) string {
	var b strings.Builder
	outcome := "COMMIT"
	if ex.Abort != "" {
		outcome = "ABORT " + ex.Abort
	}
	fmt.Fprintf(&b, "txn %#x  worker %d  %s  virt [%d..%d]  dur %d ns\n",
		ex.TID, ex.Worker, outcome, ex.Start, ex.End, ex.Dur())
	evs := append([]Event(nil), ex.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	for i := range evs {
		e := &evs[i]
		off := int64(e.Start) - int64(ex.Start)
		switch e.Kind {
		case EvTxn:
			continue
		case EvPhase:
			fmt.Fprintf(&b, "  %+10d  %-14s %10d ns\n", off, e.Phase, e.End-e.Start)
		case EvLockWait:
			fmt.Fprintf(&b, "  %+10d  %-14s %10d ns  slot %d\n", off, "lock-wait", e.End-e.Start, e.Arg)
		case EvWALClaim:
			wrap := ""
			if e.Arg2 != 0 {
				wrap = " (wrap)"
			}
			fmt.Fprintf(&b, "  %+10d  wal-claim slot %d%s\n", off, e.Arg, wrap)
		case EvXPEvict:
			kind := "partial"
			if e.Arg != 0 {
				kind = "full"
			}
			fmt.Fprintf(&b, "  %+10d  xp-evict %s  block %#x\n", off, kind, e.Arg2)
		case EvFlushTrain:
			fmt.Fprintf(&b, "  %+10d  flush-train %d lines (%d elided)  %d ns\n",
				off, e.Arg, e.Arg2, e.End-e.Start)
		case EvEpochSeal:
			fmt.Fprintf(&b, "  %+10d  epoch-seal #%d  %d records  %d ns\n",
				off, e.Arg, e.Arg2, e.End-e.Start)
		default:
			fmt.Fprintf(&b, "  %+10d  %s\n", off, e.Kind)
		}
	}
	return b.String()
}

// AutopsyReport renders the dump's exemplars: the slowest-K transactions
// followed by up to maxAborts aborted ones (0 = all).
func AutopsyReport(d *TraceDump, maxAborts int) string {
	if d == nil {
		return ""
	}
	var b strings.Builder
	if len(d.Slow) > 0 {
		fmt.Fprintf(&b, "── slowest transactions (%d captured) ──\n", len(d.Slow))
		for i := range d.Slow {
			b.WriteString(Autopsy(&d.Slow[i]))
		}
	}
	if len(d.Aborted) > 0 {
		n := len(d.Aborted)
		if maxAborts > 0 && n > maxAborts {
			n = maxAborts
		}
		fmt.Fprintf(&b, "── aborted transactions (%d captured, showing %d) ──\n", len(d.Aborted), n)
		for i := 0; i < n; i++ {
			b.WriteString(Autopsy(&d.Aborted[i]))
		}
	}
	if d.Dropped > 0 {
		fmt.Fprintf(&b, "ring dropped %d events (raise -trace-sample)\n", d.Dropped)
	}
	return b.String()
}
