package bench

import (
	"encoding/json"
	"io"
	"sync"

	"falcon/internal/obs"
)

// StreamWriter emits JSON lines to a shared sink. Parallel sweep runners
// write epoch snapshots through one StreamWriter, so Emit serializes whole
// lines under a mutex — consumers (tail -f, jq) always see complete JSON
// objects.
type StreamWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewStreamWriter wraps w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// Emit marshals v compactly and writes it as one line.
func (s *StreamWriter) Emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err = s.w.Write(b)
	return err
}

// EpochLine is one streamed snapshot of a running cell: the cumulative
// post-warmup counters after an epoch, or the final line (Done) when the
// cell completes. Phase nanos are keyed by name so the lines are
// self-describing under jq.
type EpochLine struct {
	Schema       string            `json:"schema"`
	Cell         string            `json:"cell"`
	Epoch        int               `json:"epoch"`
	Done         bool              `json:"done,omitempty"`
	Commits      uint64            `json:"commits"`
	Aborts       uint64            `json:"aborts"`
	MTxnPerSec   float64           `json:"mtxn_per_sec,omitempty"`
	PhaseNanos   map[string]uint64 `json:"phase_nanos"`
	MediaWrites  uint64            `json:"media_writes"`
	MediaReads   uint64            `json:"media_reads"`
	VirtualNanos uint64            `json:"virtual_nanos,omitempty"`
}

// EpochSnapshotLine converts an obs snapshot into a stream line.
// Zero-valued phases are omitted to keep the lines compact.
func EpochSnapshotLine(cell string, epoch int, snap obs.Snapshot) EpochLine {
	phases := make(map[string]uint64, obs.NumPhases)
	for i, n := range snap.PhaseNanos {
		if n > 0 {
			phases[obs.PhaseNames[i]] = n
		}
	}
	return EpochLine{
		Schema:      StreamSchema,
		Cell:        cell,
		Epoch:       epoch,
		Commits:     snap.Commits,
		Aborts:      snap.Aborts,
		PhaseNanos:  phases,
		MediaWrites: snap.Mem.MediaWrites,
		MediaReads:  snap.Mem.MediaReads,
	}
}

// CellDoneLine is the final stream line for a completed cell.
func CellDoneLine(cell string, res *Result) EpochLine {
	line := EpochSnapshotLine(cell, 0, res.Obs)
	line.Done = true
	line.MTxnPerSec = res.MTxnPerSec
	line.VirtualNanos = res.VirtualNanos
	return line
}
