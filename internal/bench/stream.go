package bench

import "falcon/internal/obs"

// StreamLine is one -stream JSON line: a finished cell's post-warmup counters
// and throughput, written as its row prints. Phase nanos are keyed by name so
// the lines are self-describing under jq.
type StreamLine struct {
	Schema       string            `json:"schema"`
	Cell         string            `json:"cell"`
	Commits      uint64            `json:"commits"`
	Aborts       uint64            `json:"aborts"`
	MTxnPerSec   float64           `json:"mtxn_per_sec"`
	PhaseNanos   map[string]uint64 `json:"phase_nanos"`
	MediaWrites  uint64            `json:"media_writes"`
	MediaReads   uint64            `json:"media_reads"`
	VirtualNanos uint64            `json:"virtual_nanos"`
}

// CellLine is the stream line of a finished cell. Zero-valued phases are
// omitted to keep the lines compact.
func CellLine(cell string, res *Result) StreamLine {
	phases := make(map[string]uint64, obs.NumPhases)
	for i, n := range res.Obs.PhaseNanos {
		if n > 0 {
			phases[obs.PhaseNames[i]] = n
		}
	}
	return StreamLine{
		Schema:       StreamSchema,
		Cell:         cell,
		Commits:      res.Obs.Commits,
		Aborts:       res.Obs.Aborts,
		MTxnPerSec:   res.MTxnPerSec,
		PhaseNanos:   phases,
		MediaWrites:  res.Obs.Mem.MediaWrites,
		MediaReads:   res.Obs.Mem.MediaReads,
		VirtualNanos: res.VirtualNanos,
	}
}
