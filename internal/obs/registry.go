package obs

import (
	"fmt"
	"strings"

	"falcon/internal/pmem"
)

// This file holds the snapshot and its stats structs, each beside its metric
// table (prometheus.go has the row type and the walks over it).

// WALStats aggregates the per-thread log-window gauges. The fields are plain
// uint64 because each wal.Window is single-writer (its owning worker); the
// engine sums all windows into one WALStats at snapshot time.
type WALStats struct {
	// Begins counts claimed transaction slots; Wraps counts claims that
	// reused a previously occupied slot (the window cycled).
	Begins uint64
	Wraps  uint64
	// Commits / Aborts count published and discarded records.
	Commits uint64
	Aborts  uint64
	// BytesLogged is the total record payload appended (headers excluded);
	// MaxRecordBytes is the largest single record. Together with the slot
	// capacity they give window occupancy.
	BytesLogged    uint64
	MaxRecordBytes uint64
	// Overflows counts records that spilled past their slot into the
	// overflow region; OverflowBytes is the spilled volume. FullRejects
	// counts appends refused because even the overflow region was exhausted
	// (the transaction then aborts with ErrTxnTooLarge).
	Overflows     uint64
	OverflowBytes uint64
	FullRejects   uint64
	// SlotBytes is the configured per-slot capacity (set by the window;
	// gauge denominator, not a counter).
	SlotBytes uint64
}

var walMetrics = []metric[WALStats]{
	row(counter, "falcon_wal_begins_total", "Claimed log-window transaction slots.", func(s *WALStats) *uint64 { return &s.Begins }),
	row(counter, "falcon_wal_wraps_total", "Slot claims that reused an occupied slot.", func(s *WALStats) *uint64 { return &s.Wraps }),
	row(counter, "falcon_wal_commits_total", "Published log records.", func(s *WALStats) *uint64 { return &s.Commits }),
	row(counter, "falcon_wal_aborts_total", "Discarded log records.", func(s *WALStats) *uint64 { return &s.Aborts }),
	row(counter, "falcon_wal_bytes_logged_total", "Record payload bytes appended.", func(s *WALStats) *uint64 { return &s.BytesLogged }),
	row(counter, "falcon_wal_overflows_total", "Records spilled to the overflow region.", func(s *WALStats) *uint64 { return &s.Overflows }),
	row(counter, "falcon_wal_overflow_bytes_total", "Record bytes spilled to the overflow region.", func(s *WALStats) *uint64 { return &s.OverflowBytes }),
	row(counter, "falcon_wal_full_rejects_total", "Appends refused with the overflow region exhausted.", func(s *WALStats) *uint64 { return &s.FullRejects }),
	row(lastGauge, "falcon_wal_slot_bytes", "Configured per-slot log capacity.", func(s *WALStats) *uint64 { return &s.SlotBytes }),
	row(maxGauge, "falcon_wal_max_record_bytes", "Largest single log record.", func(s *WALStats) *uint64 { return &s.MaxRecordBytes }),
}

// Add folds o into s: counters sum, MaxRecordBytes keeps the larger and
// SlotBytes the last non-zero.
func (s *WALStats) Add(o WALStats) { addRows(walMetrics, s, &o) }

// Sub returns the window s - o; the gauges pass through from s.
func (s WALStats) Sub(o WALStats) WALStats { return subRows(walMetrics, s, o) }

// MeanRecordBytes returns the average committed record size.
func (s WALStats) MeanRecordBytes() uint64 {
	if s.Commits == 0 {
		return 0
	}
	return s.BytesLogged / s.Commits
}

// EpochStats summarizes the group-commit durability epochs: how many epochs
// sealed, how many records they coalesced, and the distribution of epoch
// sizes and publish→durable lag. The counters are plain uint64 (the epoch
// board guards them with its own lock and snapshots are quiescent); the
// histograms are point-in-time copies and pass through Sub unchanged —
// callers that diff snapshots reset the board's stats at the measurement
// start instead (Engine.ResetCounters does).
type EpochStats struct {
	// Sealed counts sealed (drained) epochs; Pending is the number of epochs
	// still open at snapshot time (gauge).
	Sealed  uint64
	Pending uint64
	// Records counts transactions published into epochs; TrainSpans counts
	// the contiguous spans their seals coalesced into flush trains.
	Records    uint64
	TrainSpans uint64
	// ForcedSeals counts slot-reclaim waits that had to seal an epoch early.
	// The virtual time they stalled is PhaseGroupWait's, counted there only.
	ForcedSeals uint64
	// EpochSize is the distribution of records per sealed epoch; DurableLag
	// the distribution of publish→seal virtual nanoseconds per record.
	EpochSize  Histogram `json:",omitempty"`
	DurableLag Histogram `json:",omitempty"`
}

var epochMetrics = []metric[EpochStats]{
	row(counter, "falcon_epochs_sealed_total", "Sealed group-commit durability epochs.", func(s *EpochStats) *uint64 { return &s.Sealed }),
	row(counter, "falcon_epochs_records_total", "Transactions published into epochs.", func(s *EpochStats) *uint64 { return &s.Records }),
	row(lastGauge, "falcon_epochs_pending", "Durability epochs still open.", func(s *EpochStats) *uint64 { return &s.Pending }),
	row(counter, "falcon_epochs_train_spans_total", "Contiguous spans epoch seals coalesced into flush trains.", func(s *EpochStats) *uint64 { return &s.TrainSpans }),
	row(counter, "falcon_epochs_forced_seals_total", "Slot-reclaim waits that sealed an epoch early.", func(s *EpochStats) *uint64 { return &s.ForcedSeals }),
	hist("falcon_epoch_size_records", "Records per sealed durability epoch.", func(s *EpochStats) *Histogram { return &s.EpochSize }),
	hist("falcon_epoch_durable_lag_nanos", "Publish-to-seal virtual nanoseconds per record.", func(s *EpochStats) *Histogram { return &s.DurableLag }),
}

// Add folds o into s: counters sum, Pending keeps the last non-zero, the
// histograms merge.
func (s *EpochStats) Add(o EpochStats) { addRows(epochMetrics, s, &o) }

// Sub returns the window s - o; Pending and the histograms pass through from s
// (see the type comment).
func (s EpochStats) Sub(o EpochStats) EpochStats { return subRows(epochMetrics, s, o) }

// MeanEpochSize returns the average records per sealed epoch.
func (s EpochStats) MeanEpochSize() float64 {
	if s.Sealed == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Sealed)
}

// HotSetStats aggregates the per-worker hot-tuple set counters (selective
// data flush, §4.4). A commit probes once per written tuple: a hit is a
// write-back elided, a miss a tuple written back and tracked from then on,
// which may evict.
type HotSetStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Lines counts the probes' accesses to the set's DRAM-space lines: a
	// probe reads its set's line and may write it back, one access each.
	// Omitted from JSON while zero, so a preset without a hot set serializes
	// as it did before the counter.
	Lines uint64 `json:",omitempty"`
	// Capacity is each worker's set capacity in tuples, the engine's
	// Config().HotTupleCap: a setting, not a counter, so no row carries it
	// (Add keeps s's, Sub passes s's through). Zero for a preset without a
	// hot set.
	Capacity int `json:",omitempty"`
}

var hotSetMetrics = []metric[HotSetStats]{
	row(counter, "falcon_hot_set_hits_total", "Selective-flush elisions: written tuples found hot (one probe per written tuple).", func(s *HotSetStats) *uint64 { return &s.Hits }),
	row(counter, "falcon_hot_set_misses_total", "Hot-set misses: written tuples flushed and tracked (one probe per written tuple).", func(s *HotSetStats) *uint64 { return &s.Misses }),
	row(counter, "falcon_hot_set_evictions_total", "Hot-set LRU evictions.", func(s *HotSetStats) *uint64 { return &s.Evictions }),
	row(counter, "falcon_hot_set_lines_total", "DRAM-space line accesses of hot-set probes (one per line read or written).", func(s *HotSetStats) *uint64 { return &s.Lines }),
}

// Add sums o into s.
func (s *HotSetStats) Add(o HotSetStats) { addRows(hotSetMetrics, s, &o) }

// Sub returns s - o.
func (s HotSetStats) Sub(o HotSetStats) HotSetStats { return subRows(hotSetMetrics, s, o) }

// TableStats counts per-table heap and index activity. Like the phase sets,
// the engine keeps one accumulator per worker per table (single-writer) and
// sums them at snapshot time.
type TableStats struct {
	// Reads counts tuple read attempts (point reads and scan visits).
	Reads uint64
	// Writes counts write-set entries applied at commit (inserts, updates,
	// deletes).
	Writes uint64
	// Versions counts versions installed in the version store (out-of-place
	// materializations and in-place pre-images).
	Versions uint64
	// IndexProbes counts index lookups (point gets and scan descents).
	IndexProbes uint64
	// IndexRestarts counts B-tree reads (a Get, or one leaf of a Scan) that
	// were made again because a writer stored under them: host-side work
	// thrown away, and virtual time paid twice. It is a counter of the trees,
	// not of a worker, and stays 0 where no writer runs beside the readers
	// (one worker; deterministic group mode).
	IndexRestarts uint64 `json:",omitempty"`
	// FingerHits counts B-tree operations that started at their worker's
	// finger, the leaf its last descent reached, and FingerMisses those that
	// walked from the root instead (the tree's shape had changed, the key lay
	// outside the leaf's bounds, or the worker had no leaf yet). Hash indexes
	// count neither.
	FingerHits   uint64 `json:",omitempty"`
	FingerMisses uint64 `json:",omitempty"`
}

var tableMetrics = []metric[TableStats]{
	row(counter, "falcon_table_reads_total", "Tuple read attempts per table.", func(s *TableStats) *uint64 { return &s.Reads }),
	row(counter, "falcon_table_writes_total", "Write-set entries applied per table.", func(s *TableStats) *uint64 { return &s.Writes }),
	row(counter, "falcon_table_versions_total", "Versions installed per table.", func(s *TableStats) *uint64 { return &s.Versions }),
	row(counter, "falcon_table_index_probes_total", "Index lookups per table.", func(s *TableStats) *uint64 { return &s.IndexProbes }),
	row(counter, "falcon_table_index_restarts_total", "B-tree reads made again because a writer stored under them.", func(s *TableStats) *uint64 { return &s.IndexRestarts }),
	row(counter, "falcon_table_finger_hits_total", "B-tree operations that started at the worker's finger leaf.", func(s *TableStats) *uint64 { return &s.FingerHits }),
	row(counter, "falcon_table_finger_misses_total", "B-tree operations that walked from the root past the worker's finger.", func(s *TableStats) *uint64 { return &s.FingerMisses }),
}

// Add sums o into s.
func (s *TableStats) Add(o TableStats) { addRows(tableMetrics, s, &o) }

// Sub returns s - o.
func (s TableStats) Sub(o TableStats) TableStats { return subRows(tableMetrics, s, o) }

// Snapshot is one observation of an engine (Engine.ObsSnapshot) and of the
// server in front of it (Server.Snapshot): engine counters, phase accounting,
// abort taxonomy, WAL and hot-set gauges, and the pmem hardware counters.
// Snapshots are plain values; Sub diffs two of them, which is how warmup
// activity is excluded from measurements. Text is their human rendering,
// WritePrometheus their exposition, and encoding/json over the struct their
// one JSON encoding (what `falcon sweep -json` and -stream write).
type Snapshot struct {
	Commits     uint64
	Aborts      uint64
	PhaseNanos  [NumPhases]uint64
	AbortCounts [NumAbortReasons]uint64
	WAL         WALStats
	Hot         HotSetStats
	Mem         pmem.Snapshot
	// CacheSets and CacheWays are the simulated cache's geometry, its bytes
	// their product with the line size: settings, not counters, so no row
	// carries them and Sub passes s's through.
	CacheSets, CacheWays int `json:",omitempty"`
	// Epochs carries the group-commit durability-epoch stats (zero when
	// group commit is off).
	Epochs EpochStats
	// Tables maps table name to its per-table counters (nil when the source
	// engine registers no tables).
	Tables map[string]TableStats `json:",omitempty"`
	// Contend carries the contention & flush-amplification observatory
	// report; nil unless the observatory was armed for the window.
	Contend *ContentionStats `json:",omitempty"`
	// Server carries the serving layer's per-endpoint counters and admission
	// gauges; nil unless the snapshot came through Server.Snapshot.
	Server *ServerStats `json:",omitempty"`
}

// Sub returns the element-wise difference s - o. Contend passes through from
// s: the observatory is armed only after the baseline is taken, so o never
// carries a report.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	out := Snapshot{
		Commits:   s.Commits - o.Commits,
		Aborts:    s.Aborts - o.Aborts,
		WAL:       s.WAL.Sub(o.WAL),
		Hot:       s.Hot.Sub(o.Hot),
		Mem:       s.Mem.Sub(o.Mem),
		CacheSets: s.CacheSets,
		CacheWays: s.CacheWays,
		Epochs:    s.Epochs.Sub(o.Epochs),
		Tables:    subEach(tableMetrics, s.Tables, o.Tables),
		Contend:   s.Contend,
		Server:    s.Server.Sub(o.Server),
	}
	for i := range s.PhaseNanos {
		out.PhaseNanos[i] = s.PhaseNanos[i] - o.PhaseNanos[i]
	}
	for i := range s.AbortCounts {
		out.AbortCounts[i] = s.AbortCounts[i] - o.AbortCounts[i]
	}
	return out
}

// TotalPhaseNanos sums the phase accounting — the transactional virtual time
// across all workers.
func (s Snapshot) TotalPhaseNanos() uint64 {
	var sum uint64
	for _, n := range s.PhaseNanos {
		sum += n
	}
	return sum
}

// Text renders the snapshot as an aligned human-readable block.
func (s Snapshot) Text() string {
	var b strings.Builder
	total := s.TotalPhaseNanos()
	fmt.Fprintf(&b, "txns      commits %d  aborts %d\n", s.Commits, s.Aborts)
	if s.Aborts > 0 {
		b.WriteString("aborts   ")
		for i, n := range s.AbortCounts {
			if n > 0 {
				fmt.Fprintf(&b, " %s %d", AbortReasonNames[i], n)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "phases    total %d virtual ns\n", total)
	for i, n := range s.PhaseNanos {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		fmt.Fprintf(&b, "  %-14s %14d ns  %5.1f%%\n", PhaseNames[i], n, pct)
	}
	if s.WAL.Begins > 0 {
		fmt.Fprintf(&b, "wal       begins %d  wraps %d  commits %d  aborts %d\n",
			s.WAL.Begins, s.WAL.Wraps, s.WAL.Commits, s.WAL.Aborts)
		fmt.Fprintf(&b, "          mean record %d B (slot %d B)  max %d B  overflows %d (%d B)  full-rejects %d\n",
			s.WAL.MeanRecordBytes(), s.WAL.SlotBytes, s.WAL.MaxRecordBytes,
			s.WAL.Overflows, s.WAL.OverflowBytes, s.WAL.FullRejects)
	}
	if s.Epochs.Records > 0 || s.Epochs.Sealed > 0 {
		fmt.Fprintf(&b, "epochs    sealed %d  pending %d  records %d  mean size %.1f  train spans %d\n",
			s.Epochs.Sealed, s.Epochs.Pending, s.Epochs.Records,
			s.Epochs.MeanEpochSize(), s.Epochs.TrainSpans)
		fmt.Fprintf(&b, "          forced seals %d (%d ns group-wait)  durable lag max %d ns\n",
			s.Epochs.ForcedSeals, s.PhaseNanos[PhaseGroupWait], s.Epochs.DurableLag.Max)
	}
	if s.Hot.Hits+s.Hot.Misses > 0 {
		fmt.Fprintf(&b, "hot-set   capacity %d/worker  hits %d  misses %d  evictions %d  dram line accesses %d\n",
			s.Hot.Capacity, s.Hot.Hits, s.Hot.Misses, s.Hot.Evictions, s.Hot.Lines)
	}
	if len(s.Tables) > 0 {
		b.WriteString("tables    reads / writes / versions / index-probes\n")
		for _, name := range sortedKeys(s.Tables) {
			t := s.Tables[name]
			fmt.Fprintf(&b, "  %-14s %10d %10d %10d %10d",
				name, t.Reads, t.Writes, t.Versions, t.IndexProbes)
			if t.FingerHits+t.FingerMisses > 0 {
				fmt.Fprintf(&b, "  fingers %d hit %d missed", t.FingerHits, t.FingerMisses)
			}
			if t.IndexRestarts > 0 {
				fmt.Fprintf(&b, "  (%d index reads restarted)", t.IndexRestarts)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "pmem      media reads %d  writes %d (full %d, partial %d)  write-amp %.2f\n",
		s.Mem.MediaReads, s.Mem.MediaWrites, s.Mem.FullBlockWrites,
		s.Mem.PartialBlockWrites, s.Mem.WriteAmplification())
	fmt.Fprintf(&b, "          cache %d B (%d sets x %d ways)  hits %d  misses %d  dirty-evict %d  clwb-wb %d  xpbuf merges %d\n",
		s.CacheSets*s.CacheWays*pmem.LineSize, s.CacheSets, s.CacheWays,
		s.Mem.CacheHits, s.Mem.CacheMisses, s.Mem.DirtyEvictions,
		s.Mem.ClwbWritebacks, s.Mem.XPBufferMerges)
	if s.Server != nil {
		b.WriteString(s.Server.Text())
	}
	return b.String()
}
