package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/wal"
)

// GroupFlag is the -groupcommit / -epochns wiring: Register installs the
// flags, Apply rewrites an engine config to commit through leader-based group
// commit (durability epochs with coalesced flush trains). Out-of-place
// engines have no redo log to coalesce and are left untouched
// (core.Config.withDefaults clears the knob for them anyway).
type GroupFlag struct {
	// Enable is set by -groupcommit.
	Enable bool
	// EpochNs is set by -epochns; 0 selects wal.DefaultEpochNanos.
	EpochNs uint64
}

// Register installs -groupcommit and -epochns on fs.
func (f *GroupFlag) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Enable, "groupcommit", false,
		"commit in-place engines through leader-based group commit: transactions ack at the publish point and a lazy epoch leader seals durability epochs with coalesced flush trains")
	fs.Uint64Var(&f.EpochNs, "epochns", 0,
		fmt.Sprintf("with -groupcommit: durability epoch length in virtual nanoseconds, the bound on group-commit stalls (0 = default %d)", wal.DefaultEpochNanos))
}

// Apply returns cfg rewritten per the flags. In-place engines gain a "+GC"
// name suffix so result tables and trace labels distinguish the commit path.
func (f *GroupFlag) Apply(cfg core.Config) core.Config {
	if !f.Enable {
		return cfg
	}
	cfg.GroupCommit = true
	cfg.GroupEpochNanos = f.EpochNs
	if cfg.Update == core.InPlace {
		cfg.Name += "+GC"
	}
	return cfg
}

// CommonFlags is everything a figure command's flags decide about how its
// cells run and where their results go besides the table on stdout: trace
// capture (-trace, -trace-sample, -trace-autopsy), leader-based group commit
// (-groupcommit, -epochns), per-cell observability snapshots (-stats), the
// contention & flush-amplification observatory (-contend), Prometheus text
// exposition (-prom), and the sweep's scheduler and export knobs. A Scale
// carries it to the one cell constructor; Render feeds the exports.
type CommonFlags struct {
	Group GroupFlag
	// TracePath (-trace) is the Chrome trace-event output file; empty
	// disables tracing. TraceSample (-trace-sample) keeps every Nth
	// transaction's spans (exemplars are captured regardless); TraceAutopsy
	// (-trace-autopsy) prints the slow/abort report to stderr.
	TracePath    string
	TraceSample  int
	TraceAutopsy bool
	// Stats is set by -stats: print each cell's observability snapshot.
	Stats bool
	// Contend is set by -contend: arm the contention & flush-amplification
	// observatory for every cell and print its autopsy report.
	Contend bool
	// PromPath is set by -prom: write every cell's snapshot into one
	// Prometheus exposition file, samples distinguished by a `cell` label.
	PromPath string

	// The sweep's own flags (RegisterSweep). ParWorkers runs every cell's
	// workers through the deterministic group scheduler; JSONPath, MDPath and
	// StreamPath name the per-cell JSON export, the markdown file the
	// phase-share tables are spliced into, and the JSON-lines epoch stream
	// (one snapshot every StreamEvery transactions per worker).
	ParWorkers  bool
	JSONPath    string
	MDPath      string
	StreamPath  string
	StreamEvery int

	dumps  []obs.NamedDump
	prom   []obs.NamedSnapshot
	stream *StreamWriter
}

// RegisterCommonFlags installs the shared figure-command flags on fs and
// returns their holder. engine additionally installs the knobs that only make
// sense against a transactional engine (-groupcommit, -epochns, -contend);
// the Figure-3 micro-benchmark, which drives the pmem layer bare, leaves it
// off.
func RegisterCommonFlags(fs *flag.FlagSet, engine bool) *CommonFlags {
	f := &CommonFlags{}
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace-event JSON file (load in Perfetto) of the measured phase")
	fs.IntVar(&f.TraceSample, "trace-sample", 1, "trace every Nth transaction (slow/aborted exemplars are always captured)")
	fs.BoolVar(&f.TraceAutopsy, "trace-autopsy", false, "with -trace: print the slow/abort txn autopsy report to stderr")
	if engine {
		f.Group.Register(fs)
		fs.BoolVar(&f.Contend, "contend", false,
			"arm the contention & flush-amplification observatory for every cell and print its autopsy report (conflict attribution, key-space heat, wait-for graph, flush amplification)")
	}
	fs.BoolVar(&f.Stats, "stats", false, "print an observability snapshot per cell")
	fs.StringVar(&f.PromPath, "prom", "", "write per-cell snapshots in Prometheus text exposition format (0.0.4) to this file")
	return f
}

// RegisterSweep installs the sweep's scheduler and export flags on fs.
func (f *CommonFlags) RegisterSweep(fs *flag.FlagSet) {
	fs.BoolVar(&f.ParWorkers, "parworkers", false, "run each cell's workers through the deterministic group scheduler (results independent of GOMAXPROCS; a different simulated machine than the default free-running mode)")
	fs.StringVar(&f.JSONPath, "json", "", "also write per-cell results (incl. latency histograms) as JSON to this file")
	fs.StringVar(&f.MDPath, "md", "", "splice generated phase-share tables into this markdown file (e.g. EXPERIMENTS.md)")
	fs.StringVar(&f.StreamPath, "stream", "", "stream per-epoch snapshots as JSON lines to this file while cells run")
	fs.IntVar(&f.StreamEvery, "stream-every", 200, "with -stream: epoch size in transactions per worker")
}

// flags is the scale's flag set; a scale without one runs its cells bare.
func (s Scale) flags() *CommonFlags {
	if s.Flags == nil {
		return &CommonFlags{}
	}
	return s.Flags
}

// traceOptions is Options.Trace for a cell: nil unless -trace was given.
func (f *CommonFlags) traceOptions() *obs.TraceOptions {
	if f.TracePath == "" {
		return nil
	}
	return &obs.TraceOptions{Sample: f.TraceSample}
}

// options decorates one cell's Options with the flag-driven knobs: trace
// capture, observatory arming, the group scheduler and the epoch stream.
// label tags the cell's stream lines.
func (f *CommonFlags) options(label string, o Options) Options {
	o.Trace = f.traceOptions()
	o.Contend = f.Contend
	o.ParWorkers = f.ParWorkers
	if f.stream != nil && f.StreamEvery > 0 {
		o.EpochTxns = f.StreamEvery
		o.OnEpoch = func(epoch int, snap obs.Snapshot) {
			if err := f.stream.Emit(EpochSnapshotLine(label, epoch, snap)); err != nil {
				fmt.Fprintln(os.Stderr, "stream:", err)
			}
		}
	}
	return o
}

// collect routes one finished cell into the trace file, the -prom export and
// the stream.
func (f *CommonFlags) collect(label string, res *Result) error {
	if res.Trace != nil {
		f.dumps = append(f.dumps, obs.NamedDump{Label: label, Dump: res.Trace})
	}
	if f.PromPath != "" {
		f.prom = append(f.prom, obs.NamedSnapshot{Label: label, Snap: res.Obs})
	}
	if f.stream != nil {
		return f.stream.Emit(CellDoneLine(label, res))
	}
	return nil
}

// cellText renders the per-cell text block the flags ask for: the -stats
// snapshot and/or the -contend autopsy. Empty when neither flag is set.
func (f *CommonFlags) cellText(label string, res *Result) string {
	var b strings.Builder
	if f.Stats {
		fmt.Fprintf(&b, "--- stats: %s ---\n%s", label, res.Obs.Text())
	}
	if f.Contend && res.Obs.Contend != nil {
		fmt.Fprintf(&b, "--- contention: %s ---\n%s", label, res.Obs.Contend.Autopsy())
	}
	return b.String()
}

// export writes what the cells left for one file-valued flag: nothing when the
// flag is unset (path empty), an error when it is set but no cell produced
// anything (n == 0).
func export(stderr io.Writer, kind, path string, n int, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if n == 0 {
		return fmt.Errorf("%s: nothing collected for %s", kind, path)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: %s (%d cells)\n", kind, path, n)
	return nil
}

// writeTrace renders the collected dumps as one Chrome trace-event JSON file
// (one Perfetto process per cell), and with -trace-autopsy the slow/abort
// report of each; writeProm the collected snapshots as one Prometheus
// exposition file.
func (f *CommonFlags) writeTrace(stderr io.Writer) error {
	err := export(stderr, "trace", f.TracePath, len(f.dumps), func(w io.Writer) error {
		return obs.WriteChromeTrace(w, f.dumps) // open in https://ui.perfetto.dev
	})
	if err != nil || !f.TraceAutopsy {
		return err
	}
	for _, nd := range f.dumps {
		if rep := obs.AutopsyReport(nd.Dump, 4); rep != "" {
			fmt.Fprintf(stderr, "══ %s ══\n%s", nd.Label, rep)
		}
	}
	return nil
}

func (f *CommonFlags) writeProm(stderr io.Writer) error {
	return export(stderr, "prom", f.PromPath, len(f.prom), func(w io.Writer) error {
		return obs.WritePrometheusCells(w, f.prom)
	})
}
