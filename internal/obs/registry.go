package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"falcon/internal/pmem"
)

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
	// SlotBytes is the configured per-slot capacity (set by the collector;
	// gauge denominator, not a counter).
	SlotBytes uint64
}

// Add sums o into s, field-wise (gauges take the max / last non-zero).
func (s *WALStats) Add(o WALStats) {
	s.Begins += o.Begins
	s.Wraps += o.Wraps
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.BytesLogged += o.BytesLogged
	if o.MaxRecordBytes > s.MaxRecordBytes {
		s.MaxRecordBytes = o.MaxRecordBytes
	}
	s.Overflows += o.Overflows
	s.OverflowBytes += o.OverflowBytes
	s.FullRejects += o.FullRejects
	if o.SlotBytes != 0 {
		s.SlotBytes = o.SlotBytes
	}
}

// Sub returns the counter-wise difference s - o (gauges pass through).
func (s WALStats) Sub(o WALStats) WALStats {
	return WALStats{
		Begins:         s.Begins - o.Begins,
		Wraps:          s.Wraps - o.Wraps,
		Commits:        s.Commits - o.Commits,
		Aborts:         s.Aborts - o.Aborts,
		BytesLogged:    s.BytesLogged - o.BytesLogged,
		MaxRecordBytes: s.MaxRecordBytes,
		Overflows:      s.Overflows - o.Overflows,
		OverflowBytes:  s.OverflowBytes - o.OverflowBytes,
		FullRejects:    s.FullRejects - o.FullRejects,
		SlotBytes:      s.SlotBytes,
	}
}

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
// histogram dumps are point-in-time exports and pass through Sub unchanged —
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
	// ForcedSeals counts slot-reclaim waits that had to seal an epoch early;
	// ForcedWaitNanos is the virtual time those waits stalled (also visible
	// as PhaseGroupWait).
	ForcedSeals     uint64
	ForcedWaitNanos uint64
	// EpochSize is the distribution of records per sealed epoch; DurableLag
	// the distribution of publish→seal virtual nanoseconds per record.
	EpochSize  HistogramDump `json:",omitempty"`
	DurableLag HistogramDump `json:",omitempty"`
}

// Add sums o's counters into s (histograms merge by bucket list append is
// not meaningful; the engine contributes one board, so Add takes o's dumps
// when s has none).
func (s *EpochStats) Add(o EpochStats) {
	s.Sealed += o.Sealed
	s.Pending += o.Pending
	s.Records += o.Records
	s.TrainSpans += o.TrainSpans
	s.ForcedSeals += o.ForcedSeals
	s.ForcedWaitNanos += o.ForcedWaitNanos
	if s.EpochSize.Count == 0 {
		s.EpochSize = o.EpochSize
	}
	if s.DurableLag.Count == 0 {
		s.DurableLag = o.DurableLag
	}
}

// Sub returns the counter-wise difference s - o; the histogram dumps pass
// through from s (see the type comment).
func (s EpochStats) Sub(o EpochStats) EpochStats {
	return EpochStats{
		Sealed:          s.Sealed - o.Sealed,
		Pending:         s.Pending,
		Records:         s.Records - o.Records,
		TrainSpans:      s.TrainSpans - o.TrainSpans,
		ForcedSeals:     s.ForcedSeals - o.ForcedSeals,
		ForcedWaitNanos: s.ForcedWaitNanos - o.ForcedWaitNanos,
		EpochSize:       s.EpochSize,
		DurableLag:      s.DurableLag,
	}
}

// MeanEpochSize returns the average records per sealed epoch.
func (s EpochStats) MeanEpochSize() float64 {
	if s.Sealed == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Sealed)
}

// HotSetStats aggregates the per-worker hot-tuple LRU counters (selective
// data flush, §4.4). Hits are flushes elided; misses become adds, which may
// evict.
type HotSetStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Add sums o into s.
func (s *HotSetStats) Add(o HotSetStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// Sub returns s - o.
func (s HotSetStats) Sub(o HotSetStats) HotSetStats {
	return HotSetStats{Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses, Evictions: s.Evictions - o.Evictions}
}

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
}

// Add sums o into s.
func (s *TableStats) Add(o TableStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Versions += o.Versions
	s.IndexProbes += o.IndexProbes
	s.IndexRestarts += o.IndexRestarts
}

// Sub returns s - o.
func (s TableStats) Sub(o TableStats) TableStats {
	return TableStats{
		Reads:         s.Reads - o.Reads,
		Writes:        s.Writes - o.Writes,
		Versions:      s.Versions - o.Versions,
		IndexProbes:   s.IndexProbes - o.IndexProbes,
		IndexRestarts: s.IndexRestarts - o.IndexRestarts,
	}
}

// Snapshot is one observation of everything the registry knows: engine
// counters, phase accounting, abort taxonomy, WAL and hot-set gauges, and
// the pmem hardware counters. Snapshots are plain values; Sub diffs two of
// them, which is how warmup activity is excluded from measurements.
type Snapshot struct {
	Commits     uint64
	Aborts      uint64
	PhaseNanos  [NumPhases]uint64
	AbortCounts [NumAbortReasons]uint64
	WAL         WALStats
	Hot         HotSetStats
	Mem         pmem.Snapshot
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
	// gauges; nil unless a server registered a collector on this registry.
	Server *ServerStats `json:",omitempty"`
}

// SnapshotSchema versions the JSON rendering of a Snapshot. Consumers
// should reject schemas they do not know; the format only grows, so a
// version bump signals a field rename or semantic change, not an addition.
const SnapshotSchema = "falcon/obs-snapshot/v1"

// Sub returns the element-wise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	out := Snapshot{
		Commits: s.Commits - o.Commits,
		Aborts:  s.Aborts - o.Aborts,
		WAL:     s.WAL.Sub(o.WAL),
		Hot:     s.Hot.Sub(o.Hot),
		Mem:     s.Mem.Sub(o.Mem),
		Epochs:  s.Epochs.Sub(o.Epochs),
	}
	for i := range s.PhaseNanos {
		out.PhaseNanos[i] = s.PhaseNanos[i] - o.PhaseNanos[i]
	}
	for i := range s.AbortCounts {
		out.AbortCounts[i] = s.AbortCounts[i] - o.AbortCounts[i]
	}
	out.Contend = s.Contend.Sub(o.Contend)
	out.Server = s.Server.Sub(o.Server)
	if s.Tables != nil {
		out.Tables = make(map[string]TableStats, len(s.Tables))
		for name, ts := range s.Tables {
			out.Tables[name] = ts.Sub(o.Tables[name])
		}
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
			s.Epochs.ForcedSeals, s.Epochs.ForcedWaitNanos, s.Epochs.DurableLag.Max)
	}
	if s.Hot.Hits+s.Hot.Misses > 0 {
		fmt.Fprintf(&b, "hot-set   hits %d  misses %d  evictions %d\n",
			s.Hot.Hits, s.Hot.Misses, s.Hot.Evictions)
	}
	if len(s.Tables) > 0 {
		names := make([]string, 0, len(s.Tables))
		for name := range s.Tables {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("tables    reads / writes / versions / index-probes\n")
		for _, name := range names {
			t := s.Tables[name]
			fmt.Fprintf(&b, "  %-14s %10d %10d %10d %10d",
				name, t.Reads, t.Writes, t.Versions, t.IndexProbes)
			if t.IndexRestarts > 0 {
				fmt.Fprintf(&b, "  (%d index reads restarted)", t.IndexRestarts)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "pmem      media reads %d  writes %d (full %d, partial %d)  write-amp %.2f\n",
		s.Mem.MediaReads, s.Mem.MediaWrites, s.Mem.FullBlockWrites,
		s.Mem.PartialBlockWrites, s.Mem.WriteAmplification())
	fmt.Fprintf(&b, "          cache hits %d  misses %d  dirty-evict %d  clwb-wb %d  xpbuf merges %d\n",
		s.Mem.CacheHits, s.Mem.CacheMisses, s.Mem.DirtyEvictions,
		s.Mem.ClwbWritebacks, s.Mem.XPBufferMerges)
	if s.Server != nil {
		b.WriteString(s.Server.Text())
	}
	if s.Contend != nil {
		b.WriteString(s.Contend.Text())
	}
	return b.String()
}

// JSON renders the snapshot with named phases and abort reasons.
func (s Snapshot) JSON() ([]byte, error) {
	phases := make(map[string]uint64, NumPhases)
	for i, n := range s.PhaseNanos {
		phases[PhaseNames[i]] = n
	}
	reasons := make(map[string]uint64, NumAbortReasons)
	for i, n := range s.AbortCounts {
		reasons[AbortReasonNames[i]] = n
	}
	m := map[string]any{
		"schema":       SnapshotSchema,
		"commits":      s.Commits,
		"aborts":       s.Aborts,
		"phase_nanos":  phases,
		"abort_counts": reasons,
		"wal":          s.WAL,
		"hot_set":      s.Hot,
		"pmem":         s.Mem,
	}
	if s.Epochs.Records > 0 || s.Epochs.Sealed > 0 {
		m["epochs"] = s.Epochs
	}
	if len(s.Tables) > 0 {
		m["tables"] = s.Tables
	}
	if s.Contend != nil {
		m["contend"] = s.Contend
	}
	if s.Server != nil {
		m["server"] = s.Server
	}
	return json.MarshalIndent(m, "", "  ")
}

// Registry is the unified stats registry: named collectors contribute their
// slice of a Snapshot, and Snapshot() assembles them all at once. The engine
// registers its phase sets, abort counts, WAL windows, hot sets, and the
// pmem device; tools may register their own sources (`falcon micro` registers
// a bare phase set over its store loop).
type Registry struct {
	mu         sync.Mutex
	collectors []namedCollector
}

type namedCollector struct {
	name string
	fn   func(*Snapshot)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a named collector. Collectors run in registration order, so
// later collectors may derive from earlier contributions.
func (r *Registry) Register(name string, fn func(*Snapshot)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, namedCollector{name, fn})
}

// Sources returns the registered collector names, sorted.
func (r *Registry) Sources() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.collectors))
	for i, c := range r.collectors {
		out[i] = c.name
	}
	sort.Strings(out)
	return out
}

// Snapshot runs every collector and returns the assembled snapshot. The
// single-owner sources (phase sets, WAL windows, hot sets) are only
// coherent when the workers are quiescent — the same contract as reading
// sim.Clock values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, c := range r.collectors {
		c.fn(&s)
	}
	return s
}
