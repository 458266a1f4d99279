package obs

import (
	"fmt"
	"sort"
	"strings"
)

// ConflictKind classifies one contention event reported into the
// observatory. The taxonomy is finer than AbortReason because a single
// abort reason (e.g. AbortLockConflict) covers several distinct shadow-word
// interactions, and because a spin-wait never surfaces as an abort at all.
type ConflictKind uint8

const (
	// ConflictLockFail is a read- or write-lock acquisition refused by the
	// no-wait protocol: the shadow word was locked (or read-pinned) by
	// another transaction.
	ConflictLockFail ConflictKind = iota
	// ConflictUpgrade is a 2PL shared→exclusive upgrade refused because
	// other readers still pin the tuple.
	ConflictUpgrade
	// ConflictTSOrder is a timestamp-ordering rejection: the tuple's write
	// timestamp already passed the transaction's, so reading or writing it
	// would violate TO serial order.
	ConflictTSOrder
	// ConflictTornRead is an optimistic read invalidated by a concurrent
	// writer changing the shadow word mid-copy.
	ConflictTornRead
	// ConflictValidation is an OCC validation failure at commit: a read-set
	// tuple changed, or its lock could not be taken for the write phase.
	ConflictValidation
	// ConflictSpinWait is a snapshot read stalling behind a mid-apply
	// writer (the only true wait in the no-wait engine); its WaitNanos
	// carry the virtual stall time.
	ConflictSpinWait

	NumConflictKinds = 6
)

// ConflictKindNames maps ConflictKind to its report label.
var ConflictKindNames = [NumConflictKinds]string{
	"lock-fail", "upgrade", "ts-order", "torn-read", "validation", "spin-wait",
}

func (k ConflictKind) String() string {
	if int(k) < len(ConflictKindNames) {
		return ConflictKindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// NumPopBuckets is the number of log2 key-popularity buckets: bucket i
// means the conflicting key had been touched between 2^(i-1) and 2^i-1
// times by the reporting worker (bucket 0 = never seen before).
const NumPopBuckets = 33

// AttributionRow is one cell of the conflict-attribution table: how often a
// (table, popularity bucket, CC algorithm, conflict kind) combination
// conflicted, how long those conflicts stalled, and the slowest transaction
// that hit the bucket (when the tracer was armed alongside the observatory).
type AttributionRow struct {
	Table     string    `json:"table"`
	PopBucket int       `json:"pop_bucket"`
	Algo      string    `json:"algo"`
	Kind      string    `json:"kind"`
	Conflicts uint64    `json:"conflicts"`
	WaitNanos uint64    `json:"wait_nanos,omitempty"`
	Exemplar  *Exemplar `json:"exemplar,omitempty"`
}

// HeatDump is the merged key-space heat sketch: a power-of-two hash ring
// where every (table, slot) — or flushed tuple — hashes to one bucket, with
// separate density counters for lock conflicts, version (timestamp /
// validation) conflicts, and flush traffic.
type HeatDump struct {
	Buckets int      `json:"buckets"`
	Lock    []uint64 `json:"lock"`
	Version []uint64 `json:"version"`
	Flush   []uint64 `json:"flush"`
}

// FlushAmpRow is per-table flush-amplification accounting: logical bytes
// the application committed vs the cache-line and media churn they caused.
type FlushAmpRow struct {
	Table string `json:"table"`
	// LogicalBytes counts committed write-set payload bytes.
	LogicalBytes uint64 `json:"logical_bytes"`
	// ClwbLines counts dirty 64 B lines written back by explicit CLWB;
	// TrainLines the lines covered by hinted flush trains; EvictLines the
	// dirty lines pushed out by cache capacity replacement.
	ClwbLines  uint64 `json:"clwb_lines"`
	TrainLines uint64 `json:"train_lines"`
	EvictLines uint64 `json:"evict_lines"`
	// XPFullEvicts / XPPartialEvicts count 256 B XPBuffer block evictions
	// attributed to this table's address range; partial evictions cost a
	// read-modify-write.
	XPFullEvicts    uint64 `json:"xp_full_evicts"`
	XPPartialEvicts uint64 `json:"xp_partial_evicts"`
}

// FlushedBytes is the total line-granularity writeback volume.
func (r FlushAmpRow) FlushedBytes() uint64 {
	return 64 * (r.ClwbLines + r.TrainLines + r.EvictLines)
}

// Amplification is flushed bytes per logical byte (0 when nothing logical
// was written — e.g. the WAL region, whose logical volume is tracked by
// WALStats.BytesLogged instead).
func (r FlushAmpRow) Amplification() float64 {
	if r.LogicalBytes == 0 {
		return 0
	}
	return float64(r.FlushedBytes()) / float64(r.LogicalBytes)
}

// WaitForEdge is one edge of the lock wait-for graph: Waiter conflicted on
// a tuple whose shadow word named a transaction of Holder. In a no-wait
// engine the edge means "aborted because of", the causal equivalent of a
// blocking wait.
type WaitForEdge struct {
	Waiter int    `json:"waiter"`
	Holder int    `json:"holder"`
	Count  uint64 `json:"count"`
	// Table / Slot sample the most recent conflicting tuple on this edge.
	Table string `json:"table,omitempty"`
	Slot  uint64 `json:"slot"`
}

// WaitForVertex summarizes one worker's position in the wait-for graph.
type WaitForVertex struct {
	Worker int `json:"worker"`
	// In counts conflicts this worker caused (it held the contended word);
	// Out counts conflicts it suffered.
	In  uint64 `json:"in"`
	Out uint64 `json:"out"`
}

// WaitForDump is an on-demand snapshot of the worker-level wait-for graph,
// with cycle and hot-vertex detection. In deterministic group mode the dump
// is byte-identical across host schedules.
type WaitForDump struct {
	Workers int           `json:"workers"`
	Edges   []WaitForEdge `json:"edges,omitempty"`
	// Cycles lists the elementary worker cycles present in the edge set,
	// each rotated to start at its smallest worker id and sorted.
	Cycles [][]int `json:"cycles,omitempty"`
	// Hot lists vertices ordered by In (most-blamed worker first).
	Hot []WaitForVertex `json:"hot,omitempty"`
}

// ContentionStats is the observatory's report, assembled from the
// per-worker shards at snapshot time and exported through obs.Snapshot.
type ContentionStats struct {
	// Algo is the engine's configured CC algorithm (every row repeats it so
	// rows from different runs can be merged downstream).
	Algo        string           `json:"algo"`
	Attribution []AttributionRow `json:"attribution,omitempty"`
	Heat        *HeatDump        `json:"heat,omitempty"`
	FlushAmp    []FlushAmpRow    `json:"flush_amp,omitempty"`
	// WALFlushLines counts log-record lines clwb'd by per-commit record drains;
	// not epoch seals, not tuple flush trains, and not the time group commit
	// stalls on a slot reclaim (that is the group-wait phase's).
	WALFlushLines uint64 `json:"wal_flush_lines,omitempty"`
	// BankEvictions counts XPBuffer evictions per bank (set index);
	// SetContention is the distribution of those per-bank counts — a wide
	// spread means a few sets take all the eviction pressure.
	BankEvictions []uint64     `json:"bank_evictions,omitempty"`
	SetContention Histogram    `json:"set_contention,omitempty"`
	WaitFor       *WaitForDump `json:"wait_for,omitempty"`
}

// TotalConflicts sums the attribution counters.
func (c *ContentionStats) TotalConflicts() uint64 {
	var n uint64
	for _, r := range c.Attribution {
		n += r.Conflicts
	}
	return n
}

// heatGlyphs renders relative density; index scales with count/max.
var heatGlyphs = []rune{'·', '░', '▒', '▓', '█'}

func glyph(count, max uint64) rune {
	if count == 0 || max == 0 {
		return ' '
	}
	i := int(count * uint64(len(heatGlyphs)-1) / max)
	if i == 0 {
		i = 1 // nonzero counts always render visibly
	}
	return heatGlyphs[i]
}

// HeatMarkdown renders the heat sketch as a markdown table: one row per
// density map, one column per ring bucket group, using block glyphs scaled
// to each map's own maximum. cols caps the table width; adjacent ring
// buckets are folded together to fit, spread evenly so that every column
// holds at least one bucket.
func (h *HeatDump) HeatMarkdown(cols int) string {
	if h == nil || h.Buckets == 0 {
		return ""
	}
	if cols <= 0 || cols > h.Buckets {
		cols = h.Buckets
	}
	fold := func(src []uint64) []uint64 {
		out := make([]uint64, cols)
		for i, v := range src {
			out[i*cols/h.Buckets] += v
		}
		return out
	}
	var b strings.Builder
	b.WriteString("| map | ring (hash buckets, low→high) | total |\n")
	b.WriteString("|---|---|---|\n")
	for _, m := range []struct {
		name string
		data []uint64
	}{{"lock", h.Lock}, {"version", h.Version}, {"flush", h.Flush}} {
		folded := fold(m.data)
		var max, total uint64
		for _, v := range folded {
			total += v
			if v > max {
				max = v
			}
		}
		b.WriteString("| " + m.name + " | `")
		for _, v := range folded {
			b.WriteRune(glyph(v, max))
		}
		fmt.Fprintf(&b, "` | %d |\n", total)
	}
	return b.String()
}

// Autopsy is the report's one human rendering, printed per cell by -contend:
// top attribution buckets, heat tables, flush amplification, set contention,
// and the wait-for graph.
func (c *ContentionStats) Autopsy() string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "contention autopsy (%s): %d conflicts attributed\n", c.Algo, c.TotalConflicts())
	if len(c.Attribution) > 0 {
		b.WriteString("\ntop attribution buckets (table, popularity, kind):\n")
		top := c.Attribution
		if len(top) > 12 {
			top = top[:12]
		}
		for i, r := range top {
			fmt.Fprintf(&b, "  %2d. %-14s pop2^%-2d %-11s %8d conflicts", i+1, r.Table, r.PopBucket, r.Kind, r.Conflicts)
			if r.WaitNanos > 0 {
				fmt.Fprintf(&b, "  %d ns waited", r.WaitNanos)
			}
			if r.Exemplar != nil {
				fmt.Fprintf(&b, "  [exemplar: worker %d txn %d, %d ns, %d spans]",
					r.Exemplar.Worker, r.Exemplar.TID, r.Exemplar.End-r.Exemplar.Start, len(r.Exemplar.Events))
			}
			b.WriteByte('\n')
		}
	}
	if c.Heat != nil {
		b.WriteString("\nkey-space heat (lock vs version vs flush density):\n")
		b.WriteString(c.Heat.HeatMarkdown(64))
	}
	if len(c.FlushAmp) > 0 {
		b.WriteString("\nflush amplification per table:\n")
		b.WriteString("| table | logical B | clwb | train | evict | xp full/partial | amp |\n")
		b.WriteString("|---|---|---|---|---|---|---|\n")
		for _, r := range c.FlushAmp {
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d/%d | %.2f |\n",
				r.Table, r.LogicalBytes, r.ClwbLines, r.TrainLines, r.EvictLines,
				r.XPFullEvicts, r.XPPartialEvicts, r.Amplification())
		}
	}
	if c.WALFlushLines > 0 {
		fmt.Fprintf(&b, "\nwal: %d flush lines\n", c.WALFlushLines)
	}
	if c.SetContention.Count > 0 {
		fmt.Fprintf(&b, "\nxpbuffer set contention: %d banks, evictions/bank min %d max %d mean %.1f\n",
			c.SetContention.Count, c.SetContention.Min, c.SetContention.Max,
			float64(c.SetContention.Sum)/float64(c.SetContention.Count))
	}
	if c.WaitFor != nil {
		w := c.WaitFor
		fmt.Fprintf(&b, "\nwait-for graph: %d workers, %d edges\n", w.Workers, len(w.Edges))
		for _, e := range w.Edges {
			fmt.Fprintf(&b, "  w%d -> w%d  ×%d", e.Waiter, e.Holder, e.Count)
			if e.Table != "" {
				fmt.Fprintf(&b, "  (last: %s slot %d)", e.Table, e.Slot)
			}
			b.WriteByte('\n')
		}
		for _, cyc := range w.Cycles {
			b.WriteString("  cycle:")
			for _, v := range cyc {
				fmt.Fprintf(&b, " w%d", v)
			}
			b.WriteByte('\n')
		}
		for _, v := range w.Hot {
			if v.In == 0 && v.Out == 0 {
				continue
			}
			fmt.Fprintf(&b, "  w%d blamed %d, suffered %d\n", v.Worker, v.In, v.Out)
		}
	}
	return b.String()
}

// DetectCycles finds the elementary cycles of the (small, worker-count
// sized) directed graph given as an edge list, each rotated to start at its
// minimum vertex, deduplicated and sorted. Exposed for the observatory's
// snapshot assembly and its tests.
func DetectCycles(workers int, edges []WaitForEdge) [][]int {
	adj := make([][]bool, workers)
	for i := range adj {
		adj[i] = make([]bool, workers)
	}
	for _, e := range edges {
		if e.Waiter >= 0 && e.Waiter < workers && e.Holder >= 0 && e.Holder < workers {
			adj[e.Waiter][e.Holder] = true
		}
	}
	seen := map[string]bool{}
	var cycles [][]int
	var path []int
	onPath := make([]bool, workers)
	var dfs func(start, v int)
	dfs = func(start, v int) {
		path = append(path, v)
		onPath[v] = true
		for next := 0; next < workers; next++ {
			if !adj[v][next] || next < start {
				continue // canonical: only walk cycles from their min vertex
			}
			if next == start {
				cyc := append([]int(nil), path...)
				k := fmt.Sprint(cyc)
				if !seen[k] {
					seen[k] = true
					cycles = append(cycles, cyc)
				}
				continue
			}
			if !onPath[next] {
				dfs(start, next)
			}
		}
		onPath[v] = false
		path = path[:len(path)-1]
	}
	for start := 0; start < workers; start++ {
		dfs(start, start)
	}
	sort.Slice(cycles, func(i, j int) bool {
		a, b := cycles[i], cycles[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return cycles
}
