package bench

// Schema identifiers stamped on the tools' JSON artifacts (alongside
// obs.SnapshotSchema for obs snapshots), so offline consumers can detect
// layout drift instead of silently misreading renamed fields. The formats
// only grow; a version bump signals a rename or semantic change, not an
// addition.
const (
	// StreamSchema marks -stream JSONL epoch lines (EpochLine).
	StreamSchema = "falcon/stream/v1"
	// SweepCellSchema marks `falcon sweep` -json grid cells.
	SweepCellSchema = "falcon/sweep-cell/v1"
	// HostPerfSchema marks the `falcon hostbench` baseline file
	// (BENCH_hostperf.json).
	HostPerfSchema = "falcon/hostperf/v1"
	// LoadgenSchema marks `falcon loadgen` -json reports (loadgen.Report).
	LoadgenSchema = "falcon/loadgen/v1"
)
