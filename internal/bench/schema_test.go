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
	tags := []string{StreamSchema, SweepCellSchema, HostPerfSchema, obs.SnapshotSchema}
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
// epoch line carries the schema stamp, and the stamp plus the payload
// survive a marshal/unmarshal round trip so offline consumers (jq, replay
// tooling) can rely on the field.
func TestStreamLineSchemaRoundTrip(t *testing.T) {
	var snap obs.Snapshot
	snap.Commits = 7
	snap.Aborts = 2
	snap.PhaseNanos[0] = 123
	snap.Mem.MediaWrites = 9

	line := EpochSnapshotLine("Falcon/YCSB-A/8", 3, snap)
	if line.Schema != StreamSchema {
		t.Fatalf("EpochSnapshotLine schema = %q, want %q", line.Schema, StreamSchema)
	}
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
	var back EpochLine
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != StreamSchema || back.Cell != line.Cell || back.Epoch != 3 ||
		back.Commits != 7 || back.Aborts != 2 || back.MediaWrites != 9 {
		t.Fatalf("round trip lost fields: %+v", back)
	}

	done := CellDoneLine("Falcon/YCSB-A/8", &Result{Obs: snap, MTxnPerSec: 1.5, VirtualNanos: 42})
	if done.Schema != StreamSchema {
		t.Fatalf("CellDoneLine schema = %q, want %q", done.Schema, StreamSchema)
	}
	if !done.Done || done.MTxnPerSec != 1.5 || done.VirtualNanos != 42 {
		t.Fatalf("CellDoneLine payload wrong: %+v", done)
	}
}

// TestObsSnapshotJSONSchema checks that the obs snapshot's JSON
// rendering carries its own schema stamp.
func TestObsSnapshotJSONSchema(t *testing.T) {
	var snap obs.Snapshot
	b, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != obs.SnapshotSchema {
		t.Fatalf("snapshot JSON schema key = %v, want %q", m["schema"], obs.SnapshotSchema)
	}
}
