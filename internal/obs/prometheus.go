package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

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

	p.counter("falcon_wal_begins_total", "Claimed log-window transaction slots.", nil, s.WAL.Begins)
	p.counter("falcon_wal_wraps_total", "Slot claims that reused an occupied slot.", nil, s.WAL.Wraps)
	p.counter("falcon_wal_commits_total", "Published log records.", nil, s.WAL.Commits)
	p.counter("falcon_wal_aborts_total", "Discarded log records.", nil, s.WAL.Aborts)
	p.counter("falcon_wal_bytes_logged_total", "Record payload bytes appended.", nil, s.WAL.BytesLogged)
	p.counter("falcon_wal_overflows_total", "Records spilled to the overflow region.", nil, s.WAL.Overflows)
	p.counter("falcon_wal_overflow_bytes_total", "Record bytes spilled to the overflow region.", nil, s.WAL.OverflowBytes)
	p.counter("falcon_wal_full_rejects_total", "Appends refused with the overflow region exhausted.", nil, s.WAL.FullRejects)
	p.gauge("falcon_wal_slot_bytes", "Configured per-slot log capacity.", nil, s.WAL.SlotBytes)
	p.gauge("falcon_wal_max_record_bytes", "Largest single log record.", nil, s.WAL.MaxRecordBytes)

	p.counter("falcon_hot_set_hits_total", "Selective-flush elisions (hot-set hits).", nil, s.Hot.Hits)
	p.counter("falcon_hot_set_misses_total", "Hot-set misses (tuples flushed).", nil, s.Hot.Misses)
	p.counter("falcon_hot_set_evictions_total", "Hot-set LRU evictions.", nil, s.Hot.Evictions)

	names := make([]string, 0, len(s.Tables))
	for name := range s.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.Tables[name]
		l := map[string]string{"table": name}
		p.counter("falcon_table_reads_total", "Tuple read attempts per table.", l, t.Reads)
		p.counter("falcon_table_writes_total", "Write-set entries applied per table.", l, t.Writes)
		p.counter("falcon_table_versions_total", "Versions installed per table.", l, t.Versions)
		p.counter("falcon_table_index_probes_total", "Index lookups per table.", l, t.IndexProbes)
		p.counter("falcon_table_index_restarts_total", "B-tree reads made again because a writer stored under them.", l, t.IndexRestarts)
	}

	p.counter("falcon_pmem_media_reads_total", "256B media block reads.", nil, s.Mem.MediaReads)
	p.counter("falcon_pmem_media_writes_total", "256B media block writes.", nil, s.Mem.MediaWrites)
	p.counter("falcon_pmem_full_block_writes_total", "Media writes with a fully buffered block.", nil, s.Mem.FullBlockWrites)
	p.counter("falcon_pmem_partial_block_writes_total", "Read-modify-write media writes.", nil, s.Mem.PartialBlockWrites)
	p.counter("falcon_pmem_xpbuffer_merges_total", "Line write-backs merged into a buffered block.", nil, s.Mem.XPBufferMerges)
	p.counter("falcon_pmem_xpbuffer_hits_total", "Load misses served by the XPBuffer.", nil, s.Mem.XPBufferHits)
	p.counter("falcon_pmem_cache_hits_total", "Persistent-cache line hits.", nil, s.Mem.CacheHits)
	p.counter("falcon_pmem_cache_misses_total", "Persistent-cache line misses.", nil, s.Mem.CacheMisses)
	p.counter("falcon_pmem_dirty_evictions_total", "Dirty lines written back by replacement.", nil, s.Mem.DirtyEvictions)
	p.counter("falcon_pmem_clean_evictions_total", "Clean lines dropped by replacement.", nil, s.Mem.CleanEvictions)
	p.counter("falcon_pmem_clwb_writebacks_total", "Dirty lines written back by explicit CLWB.", nil, s.Mem.ClwbWritebacks)
	p.counter("falcon_pmem_flush_trains_total", "Hinted multi-line flush trains.", nil, s.Mem.FlushTrains)
	p.counter("falcon_pmem_flush_train_lines_total", "Lines covered by flush trains.", nil, s.Mem.FlushTrainLines)
	p.counter("falcon_pmem_bytes_stored_total", "Application bytes stored.", nil, s.Mem.BytesStored)
	p.counter("falcon_pmem_bytes_to_media_total", "Bytes physically written to media.", nil, s.Mem.BytesToMedia)
	p.counter("falcon_pmem_crash_flushed_lines_total", "Dirty lines persisted by the eADR crash flush.", nil, s.Mem.CrashFlushedLines)
	p.counter("falcon_pmem_crash_dropped_lines_total", "Dirty lines discarded by an ADR crash.", nil, s.Mem.CrashDroppedLines)

	if s.Epochs.Records > 0 || s.Epochs.Sealed > 0 {
		p.counter("falcon_epochs_sealed_total", "Sealed group-commit durability epochs.", nil, s.Epochs.Sealed)
		p.counter("falcon_epochs_records_total", "Transactions published into epochs.", nil, s.Epochs.Records)
		p.gauge("falcon_epochs_pending", "Durability epochs still open.", nil, s.Epochs.Pending)
		p.counter("falcon_epochs_train_spans_total", "Contiguous spans epoch seals coalesced into flush trains.", nil, s.Epochs.TrainSpans)
		p.counter("falcon_epochs_forced_seals_total", "Slot-reclaim waits that sealed an epoch early.", nil, s.Epochs.ForcedSeals)
		p.counter("falcon_epochs_forced_wait_nanos_total", "Virtual nanoseconds stalled in slot-reclaim waits.", nil, s.Epochs.ForcedWaitNanos)
		p.histogram("falcon_epoch_size_records", "Records per sealed durability epoch.", nil, s.Epochs.EpochSize)
		p.histogram("falcon_epoch_durable_lag_nanos", "Publish-to-seal virtual nanoseconds per record.", nil, s.Epochs.DurableLag)
	}

	if sv := s.Server; sv != nil {
		eps := make([]string, 0, len(sv.Endpoints))
		for name := range sv.Endpoints {
			eps = append(eps, name)
		}
		sort.Strings(eps)
		for _, name := range eps {
			ep := sv.Endpoints[name]
			l := map[string]string{"endpoint": name}
			p.counter("falcon_server_requests_total", "Requests that reached the endpoint (accepted or shed).", l, ep.Requests)
			p.counter("falcon_server_ok_total", "Requests answered successfully.", l, ep.OK)
			p.counter("falcon_server_errors_total", "Requests failed with an engine or protocol error.", l, ep.Errors)
			p.counter("falcon_server_shed_total", "Admission rejections by cause.",
				map[string]string{"endpoint": name, "reason": "queue"}, ep.ShedQueue)
			p.counter("falcon_server_shed_total", "Admission rejections by cause.",
				map[string]string{"endpoint": name, "reason": "deadline"}, ep.ShedDeadline)
			p.counter("falcon_server_shed_total", "Admission rejections by cause.",
				map[string]string{"endpoint": name, "reason": "draining"}, ep.ShedDraining)
			p.counter("falcon_server_expired_total", "Admitted requests whose deadline passed before completion.", l, ep.Expired)
			p.counter("falcon_server_replayed_total", "Retries answered from the idempotency table.", l, ep.Replayed)
			if ep.Latency.Count > 0 {
				p.histogram("falcon_server_latency_nanos", "Accepted-request service time in host nanoseconds.", l, ep.Latency)
			}
		}
		p.gauge("falcon_server_queue_depth", "Admission queue occupancy.", nil, sv.QueueDepth)
		p.gauge("falcon_server_queue_cap", "Admission queue bound.", nil, sv.QueueCap)
		p.gauge("falcon_server_workers", "Engine-worker slots requests run on.", nil, sv.Workers)
		p.gauge("falcon_server_est_service_nanos", "EWMA service-time estimate driving deadline-aware rejection.", nil, sv.EstServiceNanos)
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
			p.counter("falcon_contend_xp_evicts_total", "XPBuffer block evictions per table.",
				map[string]string{"table": r.Table, "mode": "full"}, r.XPFullEvicts)
			p.counter("falcon_contend_xp_evicts_total", "XPBuffer block evictions per table.",
				map[string]string{"table": r.Table, "mode": "partial"}, r.XPPartialEvicts)
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

// formatLabels renders a label map in canonical (sorted-key) order.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
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
