package bench

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"falcon/internal/obs"
)

// GridCell is one sweep measurement as exported: the element of the -json
// file and the input of the markdown tables (which skip the error rows).
type GridCell struct {
	Schema   string  `json:"schema"`
	Figure   string  `json:"figure"`
	Workload string  `json:"workload"`
	Engine   string  `json:"engine"`
	Threads  int     `json:"threads"`
	Extra    string  `json:"extra,omitempty"` // e.g. tuple size in the Figure 12 sweep
	Result   *Result `json:"result,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// commitPhases are the transaction phases shown in phase-share tables (the
// recovery phases never appear in a sweep measurement). Group-wait is zero
// outside group commit; with -groupcommit it carries the epoch-seal
// backpressure, so omitting it would make GC tables sum short of 100%.
var commitPhases = []obs.Phase{
	obs.PhaseExec, obs.PhaseCC, obs.PhaseLogAppend, obs.PhaseHeapWrite,
	obs.PhaseIndexUpdate, obs.PhaseFlush, obs.PhaseGroupWait, obs.PhaseAbort,
}

// PhaseShareMarkdown renders one markdown table per workload: each engine's
// commit-path phase shares (percent of transactional virtual time) at the
// highest measured thread count — the accounting behind Figure 11, in table
// form. Cells with errors (nil Result) are skipped.
func PhaseShareMarkdown(cells []GridCell) string {
	type key struct{ figure, workload string }
	groups := make(map[key][]GridCell)
	var order []key
	for _, c := range cells {
		if c.Result == nil {
			continue
		}
		k := key{c.Figure, c.Workload}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}

	var b strings.Builder
	for _, k := range order {
		group := groups[k]
		maxTh := 0
		for _, c := range group {
			if c.Threads > maxTh {
				maxTh = c.Threads
			}
		}
		var rows []GridCell
		for _, c := range group {
			if c.Threads == maxTh {
				rows = append(rows, c)
			}
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].Engine != rows[j].Engine {
				return false // preserve sweep order between engines
			}
			return rows[i].Extra < rows[j].Extra
		})

		fmt.Fprintf(&b, "#### Phase shares — %s (%d threads, Figure %s grid)\n\n",
			k.workload, maxTh, k.figure)
		b.WriteString("| engine | MTxn/s |")
		for _, p := range commitPhases {
			fmt.Fprintf(&b, " %s |", p)
		}
		// The WAL-path summary column: the share of virtual time spent
		// appending log records plus flushing — the cost group commit
		// coalesces, so before/after tables are compared on it directly.
		b.WriteString(" log+flush |")
		b.WriteString("\n|---|---:|")
		for range commitPhases {
			b.WriteString("---:|")
		}
		b.WriteString("---:|\n")
		for _, c := range rows {
			label := c.Engine
			if c.Extra != "" {
				label += " · " + c.Extra
			}
			snap := c.Result.Obs
			total := snap.TotalPhaseNanos()
			share := func(n uint64) float64 {
				if total == 0 {
					return 0
				}
				return 100 * float64(n) / float64(total)
			}
			fmt.Fprintf(&b, "| %s | %.3f |", label, c.Result.MTxnPerSec)
			for _, p := range commitPhases {
				fmt.Fprintf(&b, " %.1f%% |", share(snap.PhaseNanos[p]))
			}
			fmt.Fprintf(&b, " %.1f%% |\n",
				share(snap.PhaseNanos[obs.PhaseLogAppend]+snap.PhaseNanos[obs.PhaseFlush]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// spliceMarkers delimit a generated section inside a hand-written markdown
// file; everything between them is owned by the generator.
func spliceMarkers(name string) (begin, end string) {
	return "<!-- generated:" + name + ":begin -->", "<!-- generated:" + name + ":end -->"
}

// SpliceMarkdown installs content as the generated section name inside the
// markdown file at path: replacing an existing marker-delimited section,
// appending one when the file exists without markers, or creating the file.
func SpliceMarkdown(path, name, content string) error {
	begin, end := spliceMarkers(name)
	section := begin + "\n" + strings.TrimRight(content, "\n") + "\n" + end + "\n"

	old, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return os.WriteFile(path, []byte(section), 0o644)
	case err != nil:
		return err
	}
	text := string(old)
	bi := strings.Index(text, begin)
	ei := strings.Index(text, end)
	if bi >= 0 && ei > bi {
		text = text[:bi] + section + text[ei+len(end):]
		text = strings.TrimRight(text, "\n") + "\n"
	} else {
		text = strings.TrimRight(text, "\n") + "\n\n" + section
	}
	return os.WriteFile(path, []byte(text), 0o644)
}
