package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Render runs a figure's cells with up to par concurrent runners (par <= 0
// uses GOMAXPROCS) and prints its tables to stdout, each row as soon as its
// cells have finished — always in grid order, identical to a sequential run.
// It is the one renderer behind every figure command: a row's -stats and
// -contend blocks follow the row, a failed cell prints ERR with its error on
// stderr, and every result is fed to the exports f asks for (-trace, -prom,
// -stream, -json, -md). The error reports failed cells or a failed export;
// the tables are complete either way.
func Render(stdout, stderr io.Writer, fig *Figure, par int, f *CommonFlags) error {
	var streamErr error // the first failure to write -stream's file
	if f.StreamPath != "" {
		out, err := os.Create(f.StreamPath)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		f.stream = json.NewEncoder(out)
		defer out.Close() // Encode writes through, so a failed write has already been reported
	}

	cells := fig.Cells()
	results := make([]CellResult, len(cells))
	ready := make([]chan struct{}, len(cells))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	go runCells(cells, par, func(i int, cr CellResult) {
		results[i] = cr
		close(ready[i])
	})

	var failed int
	next := 0 // index into cells of the next one to print
	for _, t := range fig.Tables {
		fmt.Fprint(stdout, t.Title)
		fmt.Fprintf(stdout, t.RowFmt, t.Corner)
		for _, col := range t.Cols {
			fmt.Fprintf(stdout, t.ColFmt, col)
		}
		fmt.Fprintln(stdout)
		perRow := len(t.Cells) / len(t.Rows)
		for r, row := range t.Rows {
			fmt.Fprintf(stdout, t.RowFmt, row)
			var blocks, failures strings.Builder
			for c := 0; c < perRow; c++ {
				<-ready[next]
				cr := results[next]
				next++
				if cr.Err != nil {
					failed++
					fmt.Fprintf(stdout, t.ColFmt, "ERR")
					fmt.Fprintf(&failures, "%s: %v\n", cr.Label, cr.Err)
					continue
				}
				for _, v := range t.Values(r*perRow+c, cr.Res) {
					fmt.Fprintf(stdout, t.ColFmt, v)
				}
				if err := f.collect(cr.Label, cr.Res); err != nil && streamErr == nil {
					streamErr = fmt.Errorf("stream: %w", err)
				}
				if !t.Quiet {
					blocks.WriteString(f.cellText(cr.Label, cr.Res))
				}
			}
			fmt.Fprintln(stdout)
			fmt.Fprint(stderr, failures.String()) // after the row, so a terminal shows it whole
			fmt.Fprint(stdout, blocks.String())
		}
		if t.Foot != nil {
			fmt.Fprint(stdout, t.Foot())
		}
	}

	var cellsErr error
	if failed > 0 {
		cellsErr = fmt.Errorf("%d of %d cells failed", failed, len(cells))
	}
	return errors.Join(streamErr, cellsErr,
		f.writeGrid(stderr, fig.Name, results, cells), f.writeTrace(stderr), f.writeProm(stderr))
}

// writeGrid writes the sweep's per-cell exports: the -json file and the -md
// tables. A -groupcommit sweep splices its phase shares into its own marker
// section, so the file keeps the per-commit baseline and the group-commit
// tables side by side — the before/after comparison reads off the log+flush
// column.
func (f *CommonFlags) writeGrid(stderr io.Writer, figure string, results []CellResult, cells []Cell) error {
	if f.JSONPath == "" && f.MDPath == "" {
		return nil
	}
	grid := make([]GridCell, len(cells))
	for i, c := range cells {
		grid[i] = GridCell{Schema: SweepCellSchema, Figure: figure,
			Workload: c.Workload, Engine: c.Engine, Threads: c.Threads, Extra: c.Extra, Result: results[i].Res}
		if err := results[i].Err; err != nil {
			grid[i].Err = err.Error()
		}
	}
	if f.JSONPath != "" {
		b, err := json.MarshalIndent(grid, "", "  ")
		if err == nil {
			err = os.WriteFile(f.JSONPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("json export: %w", err)
		}
	}
	if f.MDPath == "" {
		return nil
	}
	marker := "phase-shares"
	if f.Group.Enable {
		marker = "phase-shares-groupcommit"
	}
	if err := SpliceMarkdown(f.MDPath, marker, PhaseShareMarkdown(grid)); err != nil {
		return fmt.Errorf("md export: %w", err)
	}
	fmt.Fprintf(stderr, "phase-share tables spliced into %s (%s)\n", f.MDPath, marker)
	if f.Group.Enable {
		return nil // the tables below are grid-independent; one copy suffices
	}
	// The hot-key heat tables run their own observatory-armed Uniform vs
	// Zipfian cells.
	heat, err := HeatTablesMarkdown()
	if err == nil {
		err = SpliceMarkdown(f.MDPath, "hot-key-heat", heat)
	}
	if err != nil {
		return fmt.Errorf("md export: %w", err)
	}
	fmt.Fprintf(stderr, "hot-key heat tables spliced into %s\n", f.MDPath)
	return nil
}
