// Command falcon is the reproduction's one binary. Its subcommands regenerate
// the paper's evaluation from the figure catalogue in internal/bench (micro,
// tpcc, ycsb, sweep, recovery), track what the simulation costs the host
// (hostbench), serve an engine over HTTP and drive it (serve, loadgen), and
// validate trace files (tracecheck):
//
//	falcon <command> [flags]
//	falcon <command> -h
//
// Each subcommand is a function of its arguments and two writers that returns
// the exit status, so tests drive them in-process; only main calls os.Exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"micro", "Figure 3: store bandwidth with and without clwb", runMicro},
	{"tpcc", "Figure 7 (TPC-C throughput, engines x CC) and, with -latency, Figure 8", runTPCC},
	{"ycsb", "Figure 9: YCSB A-F x Uniform/Zipfian, every engine", runYCSB},
	{"sweep", "Figure 11 (ablation scalability) and, with -tuplesize, Figure 12", runSweep},
	{"recovery", "recovery-time study and, with -faults N, the crash-consistency matrix", runRecovery},
	{"hostbench", "host cost of the default sweep: the working tree's build against a git revision's, in pairs", runHostbench},
	{"serve", "serve one engine over HTTP with admission control and exactly-once retries", runServe},
	{"loadgen", "drive a `falcon serve` endpoint with closed- or open-loop load", runLoadgen},
	{"tracecheck", "validate Chrome trace-event JSON files written by -trace", runTracecheck},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches to a subcommand and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "falcon: unknown command %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: falcon <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-11s%s\n", c.name, c.summary)
	}
	return 2
}

// newFlags returns the flag set of one subcommand. Parse errors and -h print
// to stderr and come back from parse as exit codes instead of exiting.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("falcon "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs. done reports that the command is over — bad
// flags (exit 2) or -h (exit 0).
func parse(fs *flag.FlagSet, args []string) (code int, done bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, false
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	default:
		return 2, true
	}
}

// refuse reports input that parsed but cannot be run, with the usage line;
// the exit status is 2, as for a flag that does not parse.
func refuse(fs *flag.FlagSet, stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "%s: %v\nusage: %s [flags]  (-h lists them)\n", fs.Name(), err, fs.Name())
	return 2
}
