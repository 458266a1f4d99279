package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"falcon/internal/bench"
)

// hostbench times what the simulation costs the host, in pairs: `falcon
// sweep` with no flags (bench.Fig11 at bench.SweepScale, the default grid)
// built from a git revision, against the same sweep built from the working
// tree. Both are exported into sibling scratch directories and built with
// -trimpath: a checkout's path alone moves host metrics by a few percent. A
// shared host drifts by tens of percent within minutes, so the pairs
// alternate which side runs first and only the two sides of a pair are
// compared. The gate reads CPU seconds (user + system): on a 2-core host, 29
// no-change pairs read 0.90-1.13 in CPU seconds, 3 of them above 1.10, and
// 8 timed while other work ran 0.96-1.05 in CPU but 0.81-1.35 in wall seconds.
const (
	hostPairs = 7
	// slowRatio marks a slow pair: the tree's CPU seconds above slowRatio
	// times the revision's.
	slowRatio = 1.10
	// slowPairsToFail, a majority of the pairs, fails the run. Were pairs
	// independent, a no-change run would fail about once in 300 and a 20 %
	// slowdown pass about once in 1 000; whole runs lean by up to 9 %.
	slowPairsToFail = 4
)

// hostPair is one run's entry; pair i ran the revision first when i is even.
type hostPair struct {
	Schema     string `json:"schema"`
	Label      string `json:"label"`
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Against is the revision's commit, Tree the working tree's git tree.
	Against string `json:"against"`
	Tree    string `json:"tree"`
	// Host seconds of each pair's sweep, per side.
	BaseCPUS  []float64 `json:"base_cpu_s"`
	TreeCPUS  []float64 `json:"tree_cpu_s"`
	BaseWallS []float64 `json:"base_wall_s"`
	TreeWallS []float64 `json:"tree_wall_s"`
	SlowPairs int       `json:"slow_pairs"`
	Pass      bool      `json:"pass"`
	// SameStdout: the two sides of every pair printed the same bytes, so the
	// change moved no virtual result of the grid. Reported, not gated.
	SameStdout bool `json:"same_stdout"`
}

// hostFile is the tracked file. Its entries stay raw JSON, so an append
// leaves every earlier one, of either schema, byte for byte as it was.
type hostFile struct {
	Schema      string            `json:"schema"`
	Description string            `json:"description"`
	Runs        []json.RawMessage `json:"runs"`
}

const hostDescription = "Host cost of the simulation; virtual-time results are unaffected. Stamped entries are falcon hostbench " +
	"pairs (the default sweep built from a revision and from the working tree); unstamped ones are v1 single-host runs, kept for history."

// sweepTime is one timed sweep.
type sweepTime struct {
	cpuS, wallS float64
	stdout      []byte
}

func runHostbench(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("hostbench", stderr)
	out := fs.String("out", "BENCH_hostperf.json", "baseline file to append this run to")
	date := time.Now().UTC().Format("2006-01-02")
	label := fs.String("label", "hostbench-"+date, "label for this run")
	procs := fs.Int("gomaxprocs", 0, "GOMAXPROCS of each timed sweep (0 = this process's)")
	against := fs.String("against", "HEAD", "git revision whose build the working tree's is timed against")
	if code, done := parse(fs, args); done {
		return code
	}
	commit, err := git(nil, "rev-parse", "--verify", "--quiet", *against+"^{commit}")
	if err != nil {
		return refuse(fs, stderr, fmt.Errorf("-against %q is not a commit of this repository", *against))
	}
	e := hostPair{Label: *label, Date: date, GoMaxProcs: *procs, Against: commit}
	if e.GoMaxProcs <= 0 {
		e.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
	dir, err := os.MkdirTemp("", "hostbench-")
	if err == nil {
		defer os.RemoveAll(dir)
		var sweep func(side int) (sweepTime, error)
		if sweep, err = buildPair(stderr, dir, &e); err == nil {
			err = timePairs(stdout, *out, e, sweep)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "falcon hostbench:", err)
		return 1
	}
	return 0
}

// buildPair builds `falcon` from e.Against in dir/base and from the working
// tree in dir/tree, and returns the sweep of side 0 (base) or 1 (tree).
func buildPair(stderr io.Writer, dir string, e *hostPair) (func(side int) (sweepTime, error), error) {
	// The working tree as `git add -A` would commit it, staged in an index
	// of its own: the repository's index and refs stay as they are.
	index := []string{"GIT_INDEX_FILE=" + filepath.Join(dir, "index")}
	var err error
	for _, args := range [][]string{{"read-tree", "HEAD"}, {"add", "-A"}, {"write-tree"}} {
		if e.Tree, err = git(index, args...); err != nil {
			return nil, err
		}
	}
	sides := [2]string{filepath.Join(dir, "base"), filepath.Join(dir, "tree")}
	for i, treeish := range [2]string{e.Against, e.Tree} {
		fmt.Fprintf(stderr, "building %.12s in %s\n", treeish, sides[i])
		build := exec.Command("go", "build", "-trimpath", "-o", "falcon", "./cmd/falcon")
		// A revision's go line must not send the build to the network.
		build.Dir, build.Env = sides[i], append(os.Environ(), "GOTOOLCHAIN=local")
		for _, c := range []*exec.Cmd{
			exec.Command("git", "archive", "--prefix="+filepath.Base(sides[i])+"/", "-o", sides[i]+".tar", treeish),
			exec.Command("tar", "-xf", sides[i]+".tar", "-C", dir),
			build,
		} {
			if msg, err := c.CombinedOutput(); err != nil {
				return nil, fmt.Errorf("%s: %v\n%s", strings.Join(c.Args, " "), err, msg)
			}
		}
	}
	return func(side int) (sweepTime, error) {
		var out, errs bytes.Buffer
		cmd := exec.Command(filepath.Join(sides[side], "falcon"), "sweep")
		cmd.Dir, cmd.Stdout, cmd.Stderr = sides[side], &out, &errs
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.GoMaxProcs))
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return sweepTime{}, fmt.Errorf("%s sweep: %v\n%s", sides[side], err, errs.Bytes())
		}
		cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		return sweepTime{cpu.Seconds(), time.Since(start).Seconds(), out.Bytes()}, nil
	}, nil
}

// git runs git with env added and returns its trimmed stdout.
func git(env []string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

// timePairs times hostPairs alternating pairs of sweeps, prints them and the
// verdict, appends entry e to the baseline file out, and fails when the
// tree's sweep is slow in slowPairsToFail pairs.
func timePairs(stdout io.Writer, out string, e hostPair, sweep func(side int) (sweepTime, error)) error {
	e.Schema, e.SameStdout = bench.HostPerfSchema, true
	rev := e.Against[:7]
	fmt.Fprintf(stdout, "falcon sweep, %d pairs at GOMAXPROCS %d, host seconds %s / tree\n", hostPairs, e.GoMaxProcs, rev)
	var ratios []float64
	for i := 0; i < hostPairs; i++ {
		var pair [2]sweepTime
		for _, side := range [2]int{i % 2, 1 - i%2} {
			t, err := sweep(side)
			if err != nil {
				return err
			}
			pair[side] = t
		}
		e.SameStdout = e.SameStdout && bytes.Equal(pair[0].stdout, pair[1].stdout)
		e.BaseCPUS, e.TreeCPUS = append(e.BaseCPUS, pair[0].cpuS), append(e.TreeCPUS, pair[1].cpuS)
		e.BaseWallS, e.TreeWallS = append(e.BaseWallS, pair[0].wallS), append(e.TreeWallS, pair[1].wallS)
		ratios = append(ratios, pair[1].cpuS/pair[0].cpuS)
		fmt.Fprintf(stdout, "pair %d, %-7s first: CPU %6.2f / %6.2f  ratio %.3f   wall %6.2f / %6.2f\n",
			i+1, []string{rev, "tree"}[i%2], pair[0].cpuS, pair[1].cpuS, ratios[i], pair[0].wallS, pair[1].wallS)
	}
	for i, s := range [2][2][]float64{{e.BaseCPUS, e.BaseWallS}, {e.TreeCPUS, e.TreeWallS}} {
		c, w := quartiles(s[0]), quartiles(s[1])
		fmt.Fprintf(stdout, "%-7s CPU median %.2f (quartiles %.2f, %.2f)   wall median %.2f (quartiles %.2f, %.2f)\n",
			[]string{rev, "tree"}[i], c[1], c[0], c[2], w[1], w[0], w[2])
	}
	e.SlowPairs, e.Pass = pairVerdict(e.BaseCPUS, e.TreeCPUS)
	slices.Sort(ratios)
	won, _ := slices.BinarySearch(ratios, 1)
	fmt.Fprintf(stdout, "tree faster in %d of %d pairs, median CPU ratio %.3f\n", won, hostPairs, quartiles(ratios)[1])
	fmt.Fprintf(stdout, "sweep stdout byte-identical: %v\n", e.SameStdout)
	if err := appendPair(out, e); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "appended pair %q to %s\n", e.Label, out)
	verdict := fmt.Sprintf("%d of %d pairs more than %.0f %% slower in CPU s (the gate fails at %d)",
		e.SlowPairs, hostPairs, (slowRatio-1)*100, slowPairsToFail)
	if !e.Pass {
		return fmt.Errorf("slower than %s: %s", rev, verdict)
	}
	fmt.Fprintln(stdout, "pass:", verdict)
	return nil
}

// pairVerdict counts the pairs whose tree took more than slowRatio times its
// revision, and passes the run when they are fewer than slowPairsToFail.
func pairVerdict(base, tree []float64) (slow int, pass bool) {
	for i := range base {
		if tree[i] > base[i]*slowRatio {
			slow++
		}
	}
	return slow, slow < slowPairsToFail
}

// quartiles returns the lower quartile, the median and the upper quartile of
// xs, each the middle (or the mean of the two middle values) of its part.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := func(s []float64) float64 { return (s[(len(s)-1)/2] + s[len(s)/2]) / 2 }
	return [3]float64{mid(s[:len(s)/2]), mid(s), mid(s[(len(s)+1)/2:])}
}

// appendPair appends e to the baseline file at path, creating it if missing.
func appendPair(path string, e hostPair) error {
	var f hostFile
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &f)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%s: %w", path, err)
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f.Schema, f.Description, f.Runs = bench.HostPerfSchema, hostDescription, append(f.Runs, raw)
	if data, err = json.MarshalIndent(f, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
