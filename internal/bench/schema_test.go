package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"falcon/internal/obs"
)

// TestSchemaConstantsShape guards the versioning convention itself: every
// schema tag is "falcon/<artifact>/v<N>" and the tags are distinct, so a
// consumer can dispatch on the string without ambiguity.
func TestSchemaConstantsShape(t *testing.T) {
	tags := []string{StreamSchema, SweepCellSchema, HostPerfSchema, LoadgenSchema}
	seen := map[string]bool{}
	for _, tag := range tags {
		if !strings.HasPrefix(tag, "falcon/") || !strings.Contains(tag, "/v") {
			t.Errorf("schema tag %q does not follow falcon/<artifact>/v<N>", tag)
		}
		if seen[tag] {
			t.Errorf("schema tag %q reused by two artifact kinds", tag)
		}
		seen[tag] = true
	}
}

// TestStreamLineSchemaRoundTrip guards the streamed-JSON contract: every
// line carries the schema stamp, and the stamp plus the payload survive a
// marshal/unmarshal round trip so offline consumers (jq, replay tooling) can
// rely on the field.
func TestStreamLineSchemaRoundTrip(t *testing.T) {
	var snap obs.Snapshot
	snap.Commits = 7
	snap.Aborts = 2
	snap.PhaseNanos[obs.PhaseExec] = 123
	snap.Mem.MediaWrites = 9

	line := CellLine("Falcon/YCSB-A/8", &Result{Obs: snap, MTxnPerSec: 1.5, VirtualNanos: 42})
	b, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != StreamSchema {
		t.Fatalf("marshalled line schema key = %v, want %q", m["schema"], StreamSchema)
	}
	var back StreamLine
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != StreamSchema || back.Cell != line.Cell || back.Commits != 7 || back.Aborts != 2 ||
		back.MediaWrites != 9 || back.PhaseNanos["exec"] != 123 || back.MTxnPerSec != 1.5 || back.VirtualNanos != 42 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestObsSnapshotJSONSchema checks that an obs snapshot's JSON travels under
// a schema stamp: a -json sweep cell carries SweepCellSchema, and the
// snapshot inside it (encoding/json over the struct, its one encoding)
// survives the round trip.
func TestObsSnapshotJSONSchema(t *testing.T) {
	var snap obs.Snapshot
	snap.Commits = 7
	snap.PhaseNanos[obs.PhaseGroupWait] = 11
	snap.Contend = &obs.ContentionStats{Algo: "OCC", WALFlushLines: 3}
	b, err := json.Marshal(GridCell{Schema: SweepCellSchema, Result: &Result{Obs: snap}})
	if err != nil {
		t.Fatal(err)
	}
	var back GridCell
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SweepCellSchema {
		t.Fatalf("sweep cell schema = %q, want %q", back.Schema, SweepCellSchema)
	}
	got := back.Result.Obs
	if got.Commits != 7 || got.PhaseNanos != snap.PhaseNanos || got.Contend == nil || got.Contend.Algo != "OCC" || got.Contend.WALFlushLines != 3 {
		t.Fatalf("snapshot round trip lost fields: %+v", got)
	}
}
