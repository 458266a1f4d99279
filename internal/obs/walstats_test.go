package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestWALStatsGaugeRoundTrip pins the gauge semantics that the snapshot
// diffing in bench.Run depends on: counters subtract cleanly, while
// MaxRecordBytes (a max gauge) and SlotBytes (a config gauge) pass through
// Add/Sub without being zeroed or doubled.
func TestWALStatsGaugeRoundTrip(t *testing.T) {
	var sum WALStats
	sum.Add(WALStats{Begins: 3, Commits: 2, BytesLogged: 100, MaxRecordBytes: 60, SlotBytes: 1024})
	sum.Add(WALStats{Begins: 5, Commits: 4, BytesLogged: 300, MaxRecordBytes: 40})
	if sum.Begins != 8 || sum.Commits != 6 || sum.BytesLogged != 400 {
		t.Fatalf("counter sums wrong: %+v", sum)
	}
	if sum.MaxRecordBytes != 60 {
		t.Fatalf("MaxRecordBytes = %d, want max 60", sum.MaxRecordBytes)
	}
	if sum.SlotBytes != 1024 {
		t.Fatalf("SlotBytes = %d, want last non-zero 1024", sum.SlotBytes)
	}
	// A later Add with a fresh SlotBytes overrides; a zero one does not.
	sum.Add(WALStats{SlotBytes: 2048})
	sum.Add(WALStats{Begins: 1})
	if sum.SlotBytes != 2048 {
		t.Fatalf("SlotBytes = %d after override, want 2048", sum.SlotBytes)
	}

	baseline := WALStats{Begins: 4, Commits: 3, BytesLogged: 150, MaxRecordBytes: 60, SlotBytes: 2048}
	diff := sum.Sub(baseline)
	if diff.Begins != 5 || diff.Commits != 3 || diff.BytesLogged != 250 {
		t.Fatalf("counter diff wrong: %+v", diff)
	}
	if diff.MaxRecordBytes != 60 || diff.SlotBytes != 2048 {
		t.Fatalf("gauges must pass through Sub: %+v", diff)
	}
	if got := diff.MeanRecordBytes(); got != 250/3 {
		t.Fatalf("MeanRecordBytes = %d, want %d", got, 250/3)
	}
}

func TestTableStatsAddSub(t *testing.T) {
	var sum TableStats
	sum.Add(TableStats{Reads: 10, Writes: 4, Versions: 2, IndexProbes: 12, IndexRestarts: 7})
	sum.Add(TableStats{Reads: 5, Writes: 1, IndexProbes: 3})
	diff := sum.Sub(TableStats{Reads: 6, Writes: 2, Versions: 1, IndexProbes: 10, IndexRestarts: 4})
	want := TableStats{Reads: 9, Writes: 3, Versions: 1, IndexProbes: 5, IndexRestarts: 3}
	if diff != want {
		t.Fatalf("diff = %+v, want %+v", diff, want)
	}
}

// TestIndexRestartsShowOnlyWhenCounted: a run without a restarted B-tree read
// (every deterministic group-mode cell) renders its tables as it did before
// the counter existed, in JSON and in the -stats text.
func TestIndexRestartsShowOnlyWhenCounted(t *testing.T) {
	render := func(ts TableStats) (string, string) {
		s := Snapshot{Tables: map[string]TableStats{"kv": ts}}
		b, err := json.Marshal(s.Tables)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), s.Text()
	}
	js, txt := render(TableStats{Reads: 1, IndexProbes: 2})
	if strings.Contains(js, "IndexRestarts") || strings.Contains(txt, "restarted") {
		t.Fatalf("zero restarts rendered:\n%s\n%s", js, txt)
	}
	js, txt = render(TableStats{Reads: 1, IndexProbes: 2, IndexRestarts: 3})
	if !strings.Contains(js, `"IndexRestarts":3`) || !strings.Contains(txt, "(3 index reads restarted)") {
		t.Fatalf("three restarts not rendered:\n%s\n%s", js, txt)
	}
}

// TestSnapshotTableDiff checks that registry snapshots diff the per-table
// map key-wise (the bench warmup-exclusion path).
func TestSnapshotTableDiff(t *testing.T) {
	a := Snapshot{Tables: map[string]TableStats{
		"kv":   {Reads: 20, Writes: 10},
		"acct": {Reads: 4},
	}}
	b := Snapshot{Tables: map[string]TableStats{
		"kv": {Reads: 5, Writes: 5},
	}}
	d := a.Sub(b)
	if got := d.Tables["kv"]; got != (TableStats{Reads: 15, Writes: 5}) {
		t.Fatalf("kv diff = %+v", got)
	}
	if got := d.Tables["acct"]; got != (TableStats{Reads: 4}) {
		t.Fatalf("acct diff = %+v", got)
	}
}
