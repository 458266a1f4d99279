package bench

import (
	"fmt"
	"strings"

	"falcon/internal/workload/ycsb"
)

// HeatTablesMarkdown runs the contention observatory over one Falcon YCSB-A
// cell per request distribution (Uniform vs Zipfian) and renders their
// key-space heat rings and top conflict-attribution buckets side by side —
// the EXPERIMENTS.md evidence that skew, not load, is what concentrates
// conflicts. The cells are independent of whatever grid was just swept, and
// run under the deterministic group scheduler: free-running workers on a
// small host can serialize and dodge every conflict, while the token hands
// the workers on in virtual-time order, which forces the overlap and makes
// the rendered tables byte-stable across regenerations. The cells are the default Figure-11 grid's own eight-worker
// Falcon YCSB-A cells.
func HeatTablesMarkdown() (string, error) {
	s := SweepScale()
	s.Flags = &CommonFlags{Contend: true, ParWorkers: true}
	const workers = 8
	var b strings.Builder
	fmt.Fprintf(&b, "#### Hot-key heat — YCSB-A Uniform vs Zipfian (Falcon, %d workers, %d txns/worker)\n\n",
		workers, s.Txns)
	b.WriteString("Key-space heat rings from the contention observatory (`-contend`): every\n" +
		"conflicting or flushed tuple hashes to one ring bucket, and glyph density\n" +
		"scales with each map's own maximum. Uniform load spreads across the ring;\n" +
		"Zipfian(0.99) concentrates lock/version conflicts onto a few buckets while\n" +
		"flush traffic stays broad.\n\n")
	fig := Fig11(s)
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
		cell, err := fig.Cell(fmt.Sprintf("Falcon/YCSB-A %s/%d", dist, workers))
		if err != nil {
			return "", err
		}
		res, err := cell.Run()
		if err != nil {
			return "", fmt.Errorf("heat cell (%s): %w", dist, err)
		}
		c := res.Obs.Contend
		if c == nil {
			return "", fmt.Errorf("heat cell (%s): observatory produced no report", dist)
		}
		fmt.Fprintf(&b, "**%s** — %d conflicts attributed\n\n", dist, c.TotalConflicts())
		b.WriteString(c.Heat.HeatMarkdown(48))
		top := c.Attribution
		if len(top) > 4 {
			top = top[:4]
		}
		if len(top) > 0 {
			b.WriteString("\n| table | key popularity | kind | conflicts |\n|---|---|---|---:|\n")
			for _, r := range top {
				fmt.Fprintf(&b, "| %s | ~2^%d touches | %s | %d |\n", r.Table, r.PopBucket, r.Kind, r.Conflicts)
			}
		}
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}
