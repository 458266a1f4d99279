package bench

// Schema identifiers stamped on the tools' JSON artifacts, so offline
// consumers can detect layout drift instead of silently misreading renamed
// fields. An obs snapshot has no stamp of its own: it travels inside a
// stamped sweep cell. An added field keeps the version; a renamed or removed
// field, or a changed meaning, bumps it.
const (
	// StreamSchema marks -stream JSONL lines (StreamLine), one per finished
	// cell.
	StreamSchema = "falcon/stream/v2"
	// SweepCellSchema marks `falcon sweep` -json grid cells.
	SweepCellSchema = "falcon/sweep-cell/v2"
	// HostPerfSchema marks BENCH_hostperf.json and each `falcon hostbench`
	// pair entry in it (its unstamped entries are v1's single-host runs).
	HostPerfSchema = "falcon/hostperf/v2"
	// LoadgenSchema marks `falcon loadgen` -json reports (loadgen.Report).
	LoadgenSchema = "falcon/loadgen/v1"
)
