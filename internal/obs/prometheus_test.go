package obs

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this binary")

// TestPrometheusGolden holds the exposition of promTestSnapshot, which carries
// every family, to testdata/all_families.golden byte for byte: a family
// renamed, reordered, retyped or reworded shows here. -update rewrites it, for
// a change that means to and says why.
func TestPrometheusGolden(t *testing.T) {
	var got bytes.Buffer
	if err := WritePrometheus(&got, promTestSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/all_families.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\n%s", path, got.String())
	}
}

// promTestSnapshot builds a snapshot exercising every family the writer
// emits: counters, gauges, per-table labels, epoch histograms, and the
// contention observatory block.
func promTestSnapshot() Snapshot {
	var epochSize, lag, setHist Histogram
	for _, v := range []uint64{1, 3, 8, 8, 20} {
		epochSize.Observe(v)
		lag.Observe(v * 1000)
		setHist.Observe(v)
	}
	var s Snapshot
	s.Commits = 1000
	s.Aborts = 17
	for i := range s.AbortCounts {
		s.AbortCounts[i] = uint64(i)
	}
	for i := range s.PhaseNanos {
		s.PhaseNanos[i] = uint64(100 * (i + 1))
	}
	s.WAL = WALStats{Begins: 1000, Wraps: 2, Commits: 990, Aborts: 10,
		BytesLogged: 123456, MaxRecordBytes: 900, SlotBytes: 1024, Overflows: 3}
	s.Hot = HotSetStats{Hits: 400, Misses: 100, Evictions: 20}
	s.Tables = map[string]TableStats{
		"kv":    {Reads: 5000, Writes: 900, Versions: 10, IndexProbes: 5100},
		"order": {Reads: 100, Writes: 50, Versions: 2, IndexProbes: 120, IndexRestarts: 6},
	}
	s.Epochs = EpochStats{Sealed: 40, Records: 990, ForcedSeals: 1,
		EpochSize: epochSize, DurableLag: lag}
	var lat Histogram
	for _, v := range []uint64{1000, 2000, 4000, 4000, 90000} {
		lat.Observe(v)
	}
	s.Server = &ServerStats{
		Endpoints: map[string]EndpointStats{
			"/v1/txn": {Requests: 500, OK: 450, Errors: 5, ShedQueue: 30,
				ShedDeadline: 10, ShedDraining: 5, Expired: 3, Replayed: 12, Latency: lat},
			"/v1/read": {Requests: 100, OK: 100},
		},
		QueueDepth: 7, QueueCap: 64, Workers: 4, EstServiceNanos: 2500, Draining: true,
	}
	s.Contend = &ContentionStats{
		Algo: "occ",
		Attribution: []AttributionRow{
			{Table: "kv", PopBucket: 9, Algo: "occ", Kind: "lock-fail", Conflicts: 120, WaitNanos: 3000},
			{Table: "kv", PopBucket: 2, Algo: "occ", Kind: "validation", Conflicts: 4},
		},
		FlushAmp: []FlushAmpRow{
			{Table: "kv", LogicalBytes: 64000, ClwbLines: 1200, TrainLines: 300, EvictLines: 80, XPFullEvicts: 50, XPPartialEvicts: 9},
		},
		WALFlushLines: 777,
		SetContention: setHist,
		WaitFor: &WaitForDump{Workers: 4,
			Edges:  []WaitForEdge{{Waiter: 0, Holder: 1, Count: 5}},
			Cycles: [][]int{{0, 1}}},
	}
	return s
}

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? ([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="((\\[\\"n])|[^"\\])*"$`)
)

// parseLabels splits a label body ("a=\"x\",b=\"y\"") respecting that our
// writer never emits commas inside label values unescaped... label values in
// this codebase are metric/table/kind names without commas, so a simple
// split is a valid grammar check here.
func parseLabels(t *testing.T, body string) map[string]string {
	t.Helper()
	out := map[string]string{}
	if body == "" {
		return out
	}
	for _, pair := range strings.Split(body, ",") {
		if !promLabelRe.MatchString(pair) {
			t.Fatalf("malformed label pair %q", pair)
		}
		eq := strings.IndexByte(pair, '=')
		out[pair[:eq]] = strings.Trim(pair[eq+1:], `"`)
	}
	return out
}

func TestWritePrometheusGrammar(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, promTestSnapshot(), map[string]string{"cell": "Falcon/YCSB-A/8"}); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if text == "" {
		t.Fatal("empty exposition")
	}

	type family struct {
		typ     string
		help    bool
		samples []string // sample metric names, in order
		done    bool     // a different family's sample appeared after this one
	}
	families := map[string]*family{}
	var last string

	// baseName strips histogram sample suffixes back to the family name.
	baseName := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := families[strings.TrimSuffix(name, suf)]; ok && f.typ == "histogram" {
				return strings.TrimSuffix(name, suf)
			}
		}
		return name
	}

	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if m := promHelpRe.FindStringSubmatch(line); m != nil {
			if f := families[m[1]]; f != nil && f.help {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, m[1])
			}
			if families[m[1]] == nil {
				families[m[1]] = &family{}
			}
			families[m[1]].help = true
			continue
		}
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			f := families[m[1]]
			if f == nil {
				t.Fatalf("line %d: TYPE before HELP for %s", ln+1, m[1])
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, m[1])
			}
			f.typ = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognized comment %q", ln+1, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: sample does not match grammar: %q", ln+1, line)
		}
		name, labelBody := m[1], m[3]
		fam := baseName(name)
		f := families[fam]
		if f == nil || f.typ == "" {
			t.Fatalf("line %d: sample %s before its TYPE declaration", ln+1, name)
		}
		if f.typ == "histogram" && !(name == fam+"_bucket" || name == fam+"_sum" || name == fam+"_count") {
			t.Fatalf("line %d: histogram %s has bare sample %s", ln+1, fam, name)
		}
		if f.typ != "histogram" && name != fam {
			t.Fatalf("line %d: %s sample name %s != family name", ln+1, f.typ, name)
		}
		if f.done {
			t.Fatalf("line %d: family %s has non-contiguous samples", ln+1, fam)
		}
		labels := parseLabels(t, labelBody)
		if labels["cell"] != "Falcon/YCSB-A/8" {
			t.Fatalf("line %d: base label missing: %v", ln+1, labels)
		}
		f.samples = append(f.samples, line)
		if last != "" && last != fam {
			if lf := families[last]; lf != nil {
				lf.done = true
			}
		}
		last = fam
	}

	// Counter families by convention end in _total.
	for name, f := range families {
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s lacks the _total suffix", name)
		}
		if f.typ == "" {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s announced but has no samples", name)
		}
	}

	// Every histogram series-set must be cumulative with a trailing +Inf
	// equal to its _count.
	for name, f := range families {
		if f.typ != "histogram" {
			continue
		}
		// Group this family's bucket samples by their non-le label set.
		type series struct {
			prev    uint64
			infSeen bool
			inf     uint64
			count   uint64
		}
		bySeries := map[string]*series{}
		keyOf := func(labels map[string]string) string {
			delete(labels, "le")
			var parts []string
			for k, v := range labels {
				parts = append(parts, k+"="+v)
			}
			// order-independent key
			for i := 0; i < len(parts); i++ {
				for j := i + 1; j < len(parts); j++ {
					if parts[j] < parts[i] {
						parts[i], parts[j] = parts[j], parts[i]
					}
				}
			}
			return strings.Join(parts, ",")
		}
		for _, line := range f.samples {
			m := promSampleRe.FindStringSubmatch(line)
			labels := parseLabels(t, m[3])
			le, hasLE := labels["le"]
			k := keyOf(labels)
			s := bySeries[k]
			if s == nil {
				s = &series{}
				bySeries[k] = s
			}
			var v uint64
			for _, c := range m[4] {
				if c >= '0' && c <= '9' {
					v = v*10 + uint64(c-'0')
				}
			}
			switch {
			case m[1] == name+"_bucket" && hasLE && le == "+Inf":
				s.infSeen = true
				s.inf = v
			case m[1] == name+"_bucket" && hasLE:
				if v < s.prev {
					t.Fatalf("histogram %s: bucket counts not cumulative (%d after %d)", name, v, s.prev)
				}
				s.prev = v
			case m[1] == name+"_count":
				s.count = v
			}
		}
		for k, s := range bySeries {
			if !s.infSeen {
				t.Errorf("histogram %s{%s}: no +Inf bucket", name, k)
			}
			if s.inf != s.count {
				t.Errorf("histogram %s{%s}: +Inf bucket %d != count %d", name, k, s.inf, s.count)
			}
			if s.prev > s.inf {
				t.Errorf("histogram %s{%s}: last finite bucket %d exceeds +Inf %d", name, k, s.prev, s.inf)
			}
		}
	}

	// Spot-check: contention attribution made it through with its labels.
	if !strings.Contains(text, `falcon_contend_conflicts_total{cell="Falcon/YCSB-A/8",algo="occ",kind="lock-fail",pop="9",table="kv"} 120`) {
		t.Errorf("attribution sample missing or mislabeled:\n%s", text)
	}
}

func TestWritePrometheusEmptySnapshot(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	// No base labels: samples still match the grammar, and any label braces
	// come only from dimension labels (reason/phase), not a dangling comma
	// from the absent base set.
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("bare sample does not match grammar: %q", line)
		}
		if strings.Contains(line, "{,") || strings.Contains(line, ",}") {
			t.Fatalf("dangling label comma on %q", line)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var sb strings.Builder
	err := WritePrometheus(&sb, Snapshot{}, map[string]string{"cell": `a"b\c` + "\nd"})
	if err != nil {
		t.Fatal(err)
	}
	want := `cell="a\"b\\c\nd"`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped label %s not found in output", want)
	}
}

func TestHeatMarkdownShape(t *testing.T) {
	h := &HeatDump{Buckets: 8,
		Lock:    []uint64{0, 5, 0, 0, 100, 0, 0, 1},
		Version: make([]uint64, 8),
		Flush:   []uint64{1, 1, 1, 1, 1, 1, 1, 1},
	}
	md := h.HeatMarkdown(8)
	lines := strings.Split(strings.TrimRight(md, "\n"), "\n")
	if len(lines) != 5 { // header, separator, lock, version, flush
		t.Fatalf("heat table has %d lines:\n%s", len(lines), md)
	}
	for _, l := range lines[2:] {
		if strings.Count(l, "|") != 4 {
			t.Fatalf("row %q is not a 3-column markdown row", l)
		}
	}
	if !strings.Contains(lines[2], "█") {
		t.Errorf("max bucket not rendered at full intensity: %q", lines[2])
	}

	// 256 buckets over 48 columns: every column holds five or six of them,
	// so a ring with traffic in every bucket leaves no column blank.
	ring := &HeatDump{Buckets: 256, Lock: make([]uint64, 256), Version: make([]uint64, 256), Flush: make([]uint64, 256)}
	for i := range ring.Flush {
		ring.Flush[i] = 1
	}
	md = ring.HeatMarkdown(48)
	flush := strings.Split(strings.TrimRight(md, "\n"), "\n")[4]
	glyphs := []rune(flush[strings.Index(flush, "`")+1 : strings.LastIndex(flush, "`")])
	if len(glyphs) != 48 || strings.ContainsRune(string(glyphs), ' ') {
		t.Errorf("48-column flush row has %d columns, blank ones among them: %q", len(glyphs), flush)
	}
}

func TestDetectCycles(t *testing.T) {
	edges := []WaitForEdge{
		{Waiter: 0, Holder: 1}, {Waiter: 1, Holder: 0}, // 2-cycle
		{Waiter: 1, Holder: 2}, {Waiter: 2, Holder: 3}, {Waiter: 3, Holder: 1}, // 3-cycle
		{Waiter: 2, Holder: 2}, // self-loop
	}
	cycles := DetectCycles(4, edges)
	want := [][]int{{0, 1}, {1, 2, 3}, {2}}
	if len(cycles) != len(want) {
		t.Fatalf("cycles = %v, want %v", cycles, want)
	}
	for i := range want {
		if len(cycles[i]) != len(want[i]) {
			t.Fatalf("cycles = %v, want %v", cycles, want)
		}
		for j := range want[i] {
			if cycles[i][j] != want[i][j] {
				t.Fatalf("cycles = %v, want %v", cycles, want)
			}
		}
	}
	if got := DetectCycles(4, edges[2:3]); len(got) != 0 {
		t.Fatalf("acyclic graph reported cycles: %v", got)
	}
}

// TestPrometheusCoversSnapshotCounters walks the metric tables: every uint64
// field of each stats struct must be reached by exactly one row's accessor,
// and every histogram by one histogram row. Add, Sub and the exposition all
// walk the same rows, so a field no row reaches would be dropped by all three
// and a field two rows reach would count twice in each.
func TestPrometheusCoversSnapshotCounters(t *testing.T) {
	covers(t, walMetrics)
	covers(t, epochMetrics)
	covers(t, hotSetMetrics)
	covers(t, tableMetrics)
	covers(t, memMetrics)
	covers(t, endpointMetrics)
	covers(t, serverMetrics)
}

func covers[T any](t *testing.T, rows []metric[T]) {
	t.Helper()
	reached := map[uintptr][]metricKind{}
	for _, r := range rows {
		reached[r.off] = append(reached[r.off], r.kind)
	}
	typ := reflect.TypeOf((*T)(nil)).Elem()
	fields := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		isHist := f.Type == reflect.TypeOf(Histogram{})
		if f.Type.Kind() != reflect.Uint64 && !isHist {
			continue
		}
		fields++
		if k := reached[f.Offset]; len(k) != 1 || (k[0] == histogram) != isHist {
			t.Errorf("%s.%s is reached by rows of kinds %v, want one row of a kind its type takes", typ.Name(), f.Name, k)
		}
	}
	if fields != len(rows) {
		t.Errorf("%s: %d rows for %d fields", typ.Name(), len(rows), fields)
	}
}

// TestNanosFamiliesNameTheirClock: a family counting nanoseconds says in its
// help which clock they are on, the simulation's (virtual) or the host's.
func TestNanosFamiliesNameTheirClock(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, promTestSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		m := promHelpRe.FindStringSubmatch(line)
		if m == nil || !strings.Contains(m[1], "nanos") {
			continue
		}
		checked++
		help := strings.ToLower(strings.TrimPrefix(line, "# HELP "+m[1]+" "))
		if !strings.Contains(help, "virtual") && !strings.Contains(help, "host") {
			t.Errorf("%s does not say which clock its nanoseconds are on: %q", m[1], help)
		}
	}
	if checked == 0 {
		t.Fatal("no nanosecond family in the exposition")
	}
}
