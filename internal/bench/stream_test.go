package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/workload/ycsb"
)

// TestStreamWriterLines renders a small figure with -stream: the file holds
// one complete JSON line per cell, in grid order, each carrying its cell's
// finished result.
func TestStreamWriterLines(t *testing.T) {
	dir := t.TempDir()
	cf := &CommonFlags{StreamPath: filepath.Join(dir, "run.jsonl"), JSONPath: filepath.Join(dir, "cells.json"), ParWorkers: true}
	fig := Fig11(Scale{Threads: []int{2}, Txns: 30, Warmup: 10, Records: 2000, Flags: cf})
	var out, errs bytes.Buffer
	if err := Render(&out, &errs, fig, 2, cf); err != nil {
		t.Fatalf("render: %v\n%s", err, errs.String())
	}
	raw, err := os.ReadFile(cf.JSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var cells []GridCell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cf.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var lines []StreamLine
	for sc.Scan() {
		var l StreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line is not valid JSON: %v", err)
		}
		lines = append(lines, l)
	}
	if len(lines) != len(cells) {
		t.Fatalf("lines = %d, want one per cell (%d)", len(lines), len(cells))
	}
	for i, l := range lines {
		res := cells[i].Result
		if l.Schema != StreamSchema || l.Cell != fig.Cells()[i].Label || l.Commits != res.Obs.Commits ||
			l.MTxnPerSec != res.MTxnPerSec || l.VirtualNanos != res.VirtualNanos {
			t.Errorf("line %d = %+v, want cell %d's result", i, l, i)
		}
	}
}

// TestRunTraceCapture exercises the bench-level trace arming: the dump covers
// only the measured phase and exports as valid Chrome trace JSON.
func TestRunTraceCapture(t *testing.T) {
	ecfg := core.FalconConfig()
	ecfg.Threads = 2
	e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A",
		Options{Workers: 2, TxnsPerWorker: 50, WarmupPerWorker: 30, Trace: &obs.TraceOptions{Sample: 1}},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Options.Trace set but Result.Trace is nil")
	}
	var txns int
	for _, ev := range res.Trace.Events {
		if ev.Kind == obs.EvTxn {
			txns++
		}
	}
	// Warmup is untraced: exactly the measured transactions appear.
	if txns != 2*50 {
		t.Fatalf("traced txns = %d, want 100 (measured phase only)", txns)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, []obs.NamedDump{{Label: "t", Dump: res.Trace}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("bench trace fails Chrome validation: %v", err)
	}
}

func TestPhaseShareMarkdownAndSplice(t *testing.T) {
	res := &Result{MTxnPerSec: 2.5}
	res.Obs.PhaseNanos[obs.PhaseExec] = 750
	res.Obs.PhaseNanos[obs.PhaseFlush] = 250
	cells := []GridCell{
		{Figure: "11", Workload: "YCSB-A", Engine: "Falcon", Threads: 4, Result: res},
		{Figure: "11", Workload: "YCSB-A", Engine: "Inp", Threads: 2, Result: res}, // below max threads: excluded
		{Figure: "11", Workload: "YCSB-A", Engine: "Broken", Threads: 4, Result: nil},
	}
	md := PhaseShareMarkdown(cells)
	if !strings.Contains(md, "| Falcon | 2.500 | 75.0% |") {
		t.Fatalf("markdown lacks the Falcon row:\n%s", md)
	}
	if strings.Contains(md, "Inp") || strings.Contains(md, "Broken") {
		t.Fatalf("markdown includes excluded rows:\n%s", md)
	}

	path := filepath.Join(t.TempDir(), "EXP.md")
	if err := os.WriteFile(path, []byte("# Doc\n\nhand-written text\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SpliceMarkdown(path, "phase-shares", md); err != nil {
		t.Fatal(err)
	}
	// Re-splicing replaces the generated section, not duplicates it.
	if err := SpliceMarkdown(path, "phase-shares", "replaced-content\n"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(got)
	if !strings.Contains(text, "hand-written text") {
		t.Fatal("splice destroyed hand-written content")
	}
	if strings.Contains(text, "Falcon") || !strings.Contains(text, "replaced-content") {
		t.Fatalf("splice did not replace the generated section:\n%s", text)
	}
	if n := strings.Count(text, "generated:phase-shares:begin"); n != 1 {
		t.Fatalf("marker count = %d, want 1", n)
	}
}
