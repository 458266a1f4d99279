package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"unsafe"

	"falcon/internal/pmem"
)

// metricKind says how a row's value combines in Add, diffs in Sub and is typed
// in the exposition.
type metricKind uint8

const (
	counter   metricKind = iota // Add sums, Sub diffs
	maxGauge                    // Add keeps the larger, Sub passes it through
	lastGauge                   // Add keeps the last non-zero, Sub passes it through
	histogram                   // Add merges bucket-wise, Sub passes it through
)

// metric is one row of a stats struct's table: the Prometheus family it
// renders as, the field it reads and how that combines, and a fixed label for
// a family that splits fields by one (falcon_server_shed_total by reason).
// Each struct's rows are in exposition order, and its Add, its Sub and its
// part of the exposition are walks over them (addRows, subRows, promRows), so
// a counter is declared once, in its row.
type metric[T any] struct {
	name, help string
	field
	label [2]string
}

// field is where a row's value sits in its struct, an offset taken once from
// the row's accessor, and how it combines. The walks use the offset rather
// than call the accessor: the compiler cannot see what a func value does with
// the pointer it is handed, so every value passed to Add or Sub would move to
// the heap, a dozen allocations per engine snapshot.
type field struct {
	kind metricKind
	off  uintptr
}

func row[T any](kind metricKind, name, help string, u func(*T) *uint64) metric[T] {
	return metric[T]{name: name, help: help, field: field{kind, offset(u)}}
}

func hist[T any](name, help string, h func(*T) *HistogramDump) metric[T] {
	return metric[T]{name: name, help: help, field: field{histogram, offset(h)}}
}

func offset[T, F any](at func(*T) *F) uintptr {
	var v T
	return uintptr(unsafe.Pointer(at(&v))) - uintptr(unsafe.Pointer(&v))
}

func (m metric[T]) with(name, value string) metric[T] {
	m.label = [2]string{name, value}
	return m
}

func (f field) u(v unsafe.Pointer) *uint64 { return (*uint64)(unsafe.Add(v, f.off)) }

func (f field) h(v unsafe.Pointer) *HistogramDump { return (*HistogramDump)(unsafe.Add(v, f.off)) }

func (f field) add(s, o unsafe.Pointer) {
	if f.kind == histogram {
		*f.h(s) = f.h(s).Merge(*f.h(o))
		return
	}
	v, w := f.u(s), *f.u(o)
	switch {
	case f.kind == counter:
		*v += w
	case f.kind == maxGauge && w > *v, f.kind == lastGauge && w != 0:
		*v = w
	}
}

// addRows folds o into s. The work is in field.add, which is not generic: the
// compiler knows nothing of where a generic function called from another
// package puts its pointers, so o would again move to the heap.
func addRows[T any](rows []metric[T], s, o *T) {
	for i := range rows {
		rows[i].add(unsafe.Pointer(s), unsafe.Pointer(o))
	}
}

// subRows returns the window s - o: counters diff, gauges and histograms pass
// through from s.
func subRows[T any](rows []metric[T], s, o T) T {
	for i := range rows {
		if rows[i].kind == counter {
			*rows[i].u(unsafe.Pointer(&s)) -= *rows[i].u(unsafe.Pointer(&o))
		}
	}
	return s
}

// subEach diffs two maps of T key-wise; a key o lacks diffs against zero.
func subEach[T any](rows []metric[T], s, o map[string]T) map[string]T {
	if s == nil {
		return nil
	}
	out := make(map[string]T, len(s))
	for k, v := range s {
		out[k] = subRows(rows, v, o[k])
	}
	return out
}

// promRows renders v's rows; labels (nil for none) say which v it is, e.g.
// its table. A histogram renders once it holds a sample.
func promRows[T any](p *promWriter, rows []metric[T], v *T, labels map[string]string) {
	for _, r := range rows {
		l := labels
		if r.label[0] != "" {
			l = map[string]string{r.label[0]: r.label[1]}
			maps.Copy(l, labels)
		}
		switch r.kind {
		case histogram:
			if d := *r.h(unsafe.Pointer(v)); d.Count > 0 {
				p.histogram(r.name, r.help, l, d)
			}
		case counter:
			p.counter(r.name, r.help, l, *r.u(unsafe.Pointer(v)))
		default:
			p.gauge(r.name, r.help, l, *r.u(unsafe.Pointer(v)))
		}
	}
}

// memMetrics is the pmem device's table. pmem keeps its own Sub beside its
// sharded counters; this table renders them.
var memMetrics = []metric[pmem.Snapshot]{
	row(counter, "falcon_pmem_media_reads_total", "256B media block reads.", func(m *pmem.Snapshot) *uint64 { return &m.MediaReads }),
	row(counter, "falcon_pmem_media_writes_total", "256B media block writes.", func(m *pmem.Snapshot) *uint64 { return &m.MediaWrites }),
	row(counter, "falcon_pmem_full_block_writes_total", "Media writes with a fully buffered block.", func(m *pmem.Snapshot) *uint64 { return &m.FullBlockWrites }),
	row(counter, "falcon_pmem_partial_block_writes_total", "Media writes of a partly written block.", func(m *pmem.Snapshot) *uint64 { return &m.PartialBlockWrites }),
	row(counter, "falcon_pmem_xpbuffer_whole_evictions_total", "Partial block writes without the read-modify-write's read (rest of the block clean in the XPBuffer).", func(m *pmem.Snapshot) *uint64 { return &m.XPBufferWholeEvictions }),
	row(counter, "falcon_pmem_xpbuffer_merges_total", "Line write-backs merged into a buffered block.", func(m *pmem.Snapshot) *uint64 { return &m.XPBufferMerges }),
	row(counter, "falcon_pmem_xpbuffer_hits_total", "Load misses served by the XPBuffer.", func(m *pmem.Snapshot) *uint64 { return &m.XPBufferHits }),
	row(counter, "falcon_pmem_xpbuffer_read_fills_total", "Load misses that read their block from media into the XPBuffer.", func(m *pmem.Snapshot) *uint64 { return &m.XPBufferReadFills }),
	row(counter, "falcon_pmem_xpbuffer_clean_evictions_total", "XPBuffer slots dropped with no written line (no media write).", func(m *pmem.Snapshot) *uint64 { return &m.XPBufferCleanEvictions }),
	row(counter, "falcon_pmem_cache_hits_total", "Persistent-cache line hits.", func(m *pmem.Snapshot) *uint64 { return &m.CacheHits }),
	row(counter, "falcon_pmem_cache_misses_total", "Persistent-cache line misses.", func(m *pmem.Snapshot) *uint64 { return &m.CacheMisses }),
	row(counter, "falcon_pmem_dirty_evictions_total", "Dirty lines written back by replacement.", func(m *pmem.Snapshot) *uint64 { return &m.DirtyEvictions }),
	row(counter, "falcon_pmem_clean_evictions_total", "Clean lines dropped by replacement.", func(m *pmem.Snapshot) *uint64 { return &m.CleanEvictions }),
	row(counter, "falcon_pmem_clwb_writebacks_total", "Dirty lines written back by explicit CLWB.", func(m *pmem.Snapshot) *uint64 { return &m.ClwbWritebacks }),
	row(counter, "falcon_pmem_flush_trains_total", "Hinted multi-line flush trains.", func(m *pmem.Snapshot) *uint64 { return &m.FlushTrains }),
	row(counter, "falcon_pmem_flush_train_lines_total", "Lines covered by flush trains.", func(m *pmem.Snapshot) *uint64 { return &m.FlushTrainLines }),
	row(counter, "falcon_pmem_bytes_stored_total", "Application bytes stored.", func(m *pmem.Snapshot) *uint64 { return &m.BytesStored }),
	row(counter, "falcon_pmem_bytes_to_media_total", "Bytes physically written to media.", func(m *pmem.Snapshot) *uint64 { return &m.BytesToMedia }),
	row(counter, "falcon_pmem_crash_flushed_lines_total", "Dirty lines persisted by the eADR crash flush.", func(m *pmem.Snapshot) *uint64 { return &m.CrashFlushedLines }),
	row(counter, "falcon_pmem_crash_dropped_lines_total", "Dirty lines discarded by an ADR crash.", func(m *pmem.Snapshot) *uint64 { return &m.CrashDroppedLines }),
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4, the subset OpenMetrics accepts): counters get a
// `_total` suffix, histograms render cumulative `_bucket{le=...}` series
// plus `_sum` and `_count`, and every family is announced by `# HELP` and
// `# TYPE` lines before its first sample. labels (optional) are attached to
// every sample — sweep tools label each cell so one scrape file carries the
// whole grid.
//
// The writer has no dependency on a Prometheus client library; the format
// is simple enough to emit (and grammar-check) directly.
func WritePrometheus(w io.Writer, s Snapshot, labels map[string]string) error {
	p := promWriter{w: w, base: formatLabels(labels)}
	promSnapshot(&p, s)
	return p.flush()
}

// NamedSnapshot labels one cell's snapshot for a multi-cell exposition.
type NamedSnapshot struct {
	Label string
	Snap  Snapshot
}

// WritePrometheusCells renders several labelled snapshots as ONE exposition:
// every sample carries a `cell` label, and each metric family is announced by
// a single HELP/TYPE header no matter how many cells contribute to it (the
// format forbids repeating a family's header mid-file, so concatenating
// per-cell WritePrometheus outputs would not parse).
func WritePrometheusCells(w io.Writer, cells []NamedSnapshot) error {
	var p promWriter
	p.w = w
	for _, c := range cells {
		p.base = formatLabels(map[string]string{"cell": c.Label})
		promSnapshot(&p, c.Snap)
	}
	return p.flush()
}

func promSnapshot(p *promWriter, s Snapshot) {
	p.counter("falcon_commits_total", "Committed transactions.", nil, s.Commits)
	p.counter("falcon_aborts_total", "Aborted transaction attempts.", nil, s.Aborts)
	for i, n := range s.AbortCounts {
		p.counter("falcon_aborts_by_reason_total", "Aborted attempts by taxonomy reason.",
			map[string]string{"reason": AbortReasonNames[i]}, n)
	}
	for i, n := range s.PhaseNanos {
		p.counter("falcon_phase_nanos_total", "Virtual nanoseconds per commit-path phase.",
			map[string]string{"phase": PhaseNames[i]}, n)
	}
	promRows(p, walMetrics, &s.WAL, nil)
	promRows(p, hotSetMetrics, &s.Hot, nil)
	for _, name := range sortedKeys(s.Tables) {
		t := s.Tables[name]
		promRows(p, tableMetrics, &t, map[string]string{"table": name})
	}
	promRows(p, memMetrics, &s.Mem, nil)
	if s.Epochs.Records > 0 || s.Epochs.Sealed > 0 {
		promRows(p, epochMetrics, &s.Epochs, nil)
	}

	if sv := s.Server; sv != nil {
		for _, name := range sortedKeys(sv.Endpoints) {
			ep := sv.Endpoints[name]
			promRows(p, endpointMetrics, &ep, map[string]string{"endpoint": name})
		}
		promRows(p, serverMetrics, sv, nil)
		draining := uint64(0)
		if sv.Draining {
			draining = 1
		}
		p.gauge("falcon_server_draining", "1 while the server refuses new admissions.", nil, draining)
	}

	if c := s.Contend; c != nil {
		for _, r := range c.Attribution {
			l := map[string]string{
				"table": r.Table, "pop": fmt.Sprint(r.PopBucket), "algo": r.Algo, "kind": r.Kind,
			}
			p.counter("falcon_contend_conflicts_total", "Conflicts per (table, popularity, algo, kind).", l, r.Conflicts)
			if r.WaitNanos > 0 {
				p.counter("falcon_contend_wait_nanos_total", "Virtual nanoseconds stalled per attribution bucket.", l, r.WaitNanos)
			}
		}
		for _, r := range c.FlushAmp {
			l := map[string]string{"table": r.Table}
			p.counter("falcon_contend_logical_bytes_total", "Committed write-set payload bytes per table.", l, r.LogicalBytes)
			p.counter("falcon_contend_clwb_lines_total", "Explicit CLWB writeback lines per table.", l, r.ClwbLines)
			p.counter("falcon_contend_train_lines_total", "Flush-train writeback lines per table.", l, r.TrainLines)
			p.counter("falcon_contend_evict_lines_total", "Capacity-eviction writeback lines per table.", l, r.EvictLines)
			for i, n := range []uint64{r.XPFullEvicts, r.XPPartialEvicts} {
				p.counter("falcon_contend_xp_evicts_total", "XPBuffer block evictions per table.",
					map[string]string{"table": r.Table, "mode": [...]string{"full", "partial"}[i]}, n)
			}
		}
		p.counter("falcon_contend_wal_flush_lines_total", "Log-region lines flushed by the WAL drain path.", nil, c.WALFlushLines)
		p.counter("falcon_contend_wal_group_wait_nanos_total", "Virtual nanoseconds stalled on group-commit slot reclaim.", nil, c.WALGroupWaitNanos)
		if c.SetContention.Count > 0 {
			p.histogram("falcon_contend_xp_set_evictions", "Evictions per XPBuffer bank (set-contention spread).", nil, c.SetContention)
		}
		if c.WaitFor != nil {
			p.gauge("falcon_contend_waitfor_edges", "Edges in the worker wait-for graph.", nil, uint64(len(c.WaitFor.Edges)))
			p.gauge("falcon_contend_waitfor_cycles", "Elementary cycles in the wait-for graph.", nil, uint64(len(c.WaitFor.Cycles)))
			p.counter("falcon_contend_det_rounds_total", "Deterministic group-scheduler replay barriers observed.", nil, c.WaitFor.Rounds)
		}
	}
}

// promFamily buffers one metric family: its HELP/TYPE header and every
// sample line, so a family's samples render as one contiguous group no
// matter what order the snapshot walk produced them in (the exposition
// format requires all lines of a metric to appear together).
type promFamily struct {
	name, typ, help string
	lines           []string
}

// promWriter accumulates families in first-seen order and writes them out
// grouped on flush.
type promWriter struct {
	w        io.Writer
	base     string
	families []*promFamily
	byName   map[string]*promFamily
}

func (p *promWriter) family(name, typ, help string) *promFamily {
	if f, ok := p.byName[name]; ok {
		return f
	}
	if p.byName == nil {
		p.byName = map[string]*promFamily{}
	}
	f := &promFamily{name: name, typ: typ, help: help}
	p.byName[name] = f
	p.families = append(p.families, f)
	return f
}

func (p *promWriter) sample(f *promFamily, suffix string, labels map[string]string, v uint64) {
	l := mergeLabels(p.base, labels)
	if l != "" {
		f.lines = append(f.lines, fmt.Sprintf("%s%s{%s} %d", f.name, suffix, l, v))
	} else {
		f.lines = append(f.lines, fmt.Sprintf("%s%s %d", f.name, suffix, v))
	}
}

func (p *promWriter) counter(name, help string, labels map[string]string, v uint64) {
	p.sample(p.family(name, "counter", help), "", labels, v)
}

func (p *promWriter) gauge(name, help string, labels map[string]string, v uint64) {
	p.sample(p.family(name, "gauge", help), "", labels, v)
}

// histogram renders a HistogramDump as cumulative le-buckets. The dump's
// buckets are disjoint [Lo, Hi] ranges in ascending order, so the running
// sum gives the cumulative count at each upper bound.
func (p *promWriter) histogram(name, help string, labels map[string]string, d HistogramDump) {
	f := p.family(name, "histogram", help)
	withLE := func(le string) map[string]string {
		bl := map[string]string{"le": le}
		for k, v := range labels {
			bl[k] = v
		}
		return bl
	}
	var cum uint64
	for _, b := range d.Buckets {
		cum += b.Count
		p.sample(f, "_bucket", withLE(fmt.Sprint(b.Hi)), cum)
	}
	p.sample(f, "_bucket", withLE("+Inf"), d.Count)
	p.sample(f, "_sum", labels, d.Sum)
	p.sample(f, "_count", labels, d.Count)
}

func (p *promWriter) flush() error {
	for _, f := range p.families {
		if _, err := fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(p.w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns m's keys in order: output must not follow Go's map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatLabels renders a label map in canonical (sorted-key) order.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, k := range sortedKeys(labels) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(labels[k]))
	}
	return b.String()
}

func mergeLabels(base string, extra map[string]string) string {
	e := formatLabels(extra)
	switch {
	case base == "":
		return e
	case e == "":
		return base
	default:
		return base + "," + e
	}
}

// escapeLabel escapes backslash, double-quote and newline per the format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}
