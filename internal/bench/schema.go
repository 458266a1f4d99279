package bench

// Schema identifiers stamped on the tools' JSON artifacts, so offline
// consumers can detect layout drift instead of silently misreading renamed
// fields. An obs snapshot has no stamp of its own: it travels inside a
// stamped sweep cell or stream line. The formats only grow; a version bump
// signals a rename or semantic change, not an addition.
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
