package crashtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// Cell is one point of the crash matrix: an engine preset under a
// persistence mode.
type Cell struct {
	Config core.Config
	Mode   pmem.Mode
}

// ModeName renders a pmem.Mode for cell labels and CLI flags.
func ModeName(m pmem.Mode) string {
	if m == pmem.EADR {
		return "eadr"
	}
	return "adr"
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s", c.Config.Name, ModeName(c.Mode))
}

// ReproArgs is the `falcon` argument list that re-runs exactly this seed.
func (c Cell) ReproArgs(seed uint64) []string {
	return []string{"recovery", "-faults", "1", "-seed", strconv.FormatUint(seed, 10),
		"-preset", c.Config.Name, "-mode", ModeName(c.Mode)}
}

// Repro returns ReproArgs as a one-line shell command (preset names can hold
// spaces and parentheses; such arguments are quoted).
func (c Cell) Repro(seed uint64) string {
	var b strings.Builder
	b.WriteString("go run ./cmd/falcon")
	for _, a := range c.ReproArgs(seed) {
		if strings.ContainsAny(a, " ()") {
			a = strconv.Quote(a)
		}
		b.WriteString(" " + a)
	}
	return b.String()
}

// Strict reports whether the cell promises strict durable linearizability:
// every acknowledged transaction survives the crash exactly. Under eADR the
// cache is in the persistence domain, so every preset is strict — including
// group commit, whose publish point is then physically durable. Under ADR
// only engines that flush their durability chain qualify: out-of-place
// engines with flushed version data and markers, and in-place engines with
// flushed logs plus flushed tuple data (whose log windows are deep enough —
// txnBudget < Threads × slots — that no acknowledged record is overwritten
// before the crash). Group commit under ADR acknowledges at the publish
// point, before the durability epoch seals, so a crash mid-epoch legitimately
// drops acknowledged tail transactions (per-epoch all-or-nothing) — those
// cells are checked against the weaker containment oracle. Everything else
// is containment too.
func (c Cell) Strict() bool {
	if c.Mode == pmem.EADR {
		return true
	}
	if c.Config.GroupCommit {
		return false
	}
	if c.Config.Update == core.OutOfPlace {
		return c.Config.Flush != core.FlushNone
	}
	return c.Config.Log == core.FlushedLog && c.Config.Flush == core.FlushAll
}

// Matrix returns the full preset × mode grid, plus a group-commit variant of
// every in-place preset (out-of-place engines have no redo log to coalesce).
func Matrix() []Cell {
	var cells []Cell
	for _, ecfg := range bench.EngineConfigs() {
		for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
			cells = append(cells, Cell{Config: ecfg, Mode: mode})
		}
		if ecfg.Update == core.InPlace {
			gcfg := ecfg
			gcfg.GroupCommit = true
			gcfg.Name += "+GC"
			for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
				cells = append(cells, Cell{Config: gcfg, Mode: mode})
			}
		}
	}
	return cells
}

// Options configures a cell run.
type Options struct {
	// Seeds is the number of crash seeds to run (default 1).
	Seeds int
	// FirstSeed is the first seed value (default 1); seeds are
	// FirstSeed..FirstSeed+Seeds-1 so a repro can name one directly.
	FirstSeed uint64
	// TraceDir, when set, arms an unsampled tracer on every seed's engine
	// and, for seeds that violate their oracle, writes the pre-crash Chrome
	// trace there — the transaction history leading into the failing crash,
	// next to the one-line repro.
	TraceDir string
}

func (o Options) withDefaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 1
	}
	if o.FirstSeed == 0 {
		o.FirstSeed = 1
	}
	return o
}

// Violation is one oracle failure, tagged with the seed that produced it.
type Violation struct {
	Seed   uint64
	Detail string
	// TracePath is the pre-crash trace dump for this seed, present only when
	// Options.TraceDir was set and the dump was written.
	TracePath string
}

// CellResult summarizes one cell's run across all its seeds.
type CellResult struct {
	Cell    Cell
	Strict  bool
	Seeds   int
	Crashes int // seeds whose injected crash actually fired
	Torn    int // seeds run with torn-write injection
	Corrupt int // seeds run with flipped-byte corruption

	// DetectedTorn / DetectedCorrupt sum the recovery reports' taxonomy
	// counters across seeds — evidence the WAL scanner is classifying.
	DetectedTorn    int
	DetectedCorrupt int
	// DroppedUnsealed sums group-commit records dropped for sitting in an
	// unsealed durability epoch — evidence the mid-epoch crash window
	// (between the leader's train flush and the marker publish) was hit.
	DroppedUnsealed int

	Violations []Violation
}

// Passed reports whether every seed satisfied its oracle.
func (r CellResult) Passed() bool { return len(r.Violations) == 0 }

// cellConfig applies the harness geometry to a preset. Both the initial
// build and the post-crash Recover must use the identical config.
func cellConfig(preset core.Config) core.Config {
	cfg := preset
	cfg.Threads = cellThreads
	cfg.Window.SlotBytes = 1024
	cfg.Window.OverflowBytes = 8 << 10
	cfg.DRAMBytes = 4 << 20 // enough for the tiny indexes; keeps builds cheap
	if cfg.TupleCacheBytes > 1<<20 {
		cfg.TupleCacheBytes = 1 << 20
	}
	return cfg
}

func cellSpecs() []core.TableSpec {
	return []core.TableSpec{
		{Name: "kv", Schema: kvSchema(), Capacity: 2048, KeyCol: 0, IndexKind: index.Hash},
		{Name: "acct", Schema: acctSchema(), Capacity: 256, KeyCol: 0, IndexKind: index.Hash},
	}
}

// buildCell constructs a fresh engine for the cell over specs, bulk-loads
// the initial rows of the tables it has (reporting each to onRow when that
// is not nil), and syncs everything to the media. Fault plans are armed only
// after it returns, so injected crashes always land mid-stream.
//
// The rows are kv 1..kvKeys, then acct 1..acctKeys, spread over the
// workers' slot ranges by one round-robin counter across both tables. The
// allocation cursors live in simulated memory, so this order is part of the
// image every pinned count was recorded against.
func buildCell(cell Cell, specs []core.TableSpec, onRow func(cellKey, int64)) (*core.Engine, error) {
	cfg := cellConfig(cell.Config)
	sys := pmem.NewSystem(pmem.Config{
		Mode:        cell.Mode,
		DeviceBytes: bench.EstimateDeviceBytes(cfg, specs),
		// A small cache and buffer force evictions and drains during a
		// 48-transaction stream, so those fault events exist to crash on.
		CacheBytes:    64 << 10,
		CacheWays:     8,
		XPBufferBytes: 8 << 10,
		XPBanks:       2,
	})
	e, err := core.New(sys, cfg, specs)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", cell, err)
	}
	th := 0
	for _, r := range initialRows() {
		tbl := e.Table(r.ck.table)
		if tbl == nil {
			continue // the server cells have no acct table
		}
		s := tbl.Schema()
		buf := make([]byte, s.TupleSize())
		s.PutUint64(buf, 0, r.ck.key)
		s.PutInt64(buf, 1, r.val)
		if err := tbl.Load(th, r.ck.key, buf); err != nil {
			return nil, fmt.Errorf("load %s: %w", cell, err)
		}
		if onRow != nil {
			onRow(r.ck, r.val)
		}
		th = (th + 1) % cellThreads
	}
	e.Sync(sim.NewClock())
	return e, nil
}

// calibrate builds a fresh cell over specs and runs stream on it once under
// a count-only fault plan. It returns the per-event fault-point totals, at
// least one of them nonzero, and the engine the stream ran on.
func calibrate(cell Cell, specs []core.TableSpec, stream func(*core.Engine) error) ([pmem.NumFaultEvents]uint64, *core.Engine, error) {
	var counts [pmem.NumFaultEvents]uint64
	e, err := buildCell(cell, specs, nil)
	if err != nil {
		return counts, nil, err
	}
	plan := &pmem.FaultPlan{} // N == 0: count, never fire
	e.System().SetFaults(plan)
	if err := stream(e); err != nil {
		return counts, nil, err
	}
	if counts = plan.Counts(); counts == ([pmem.NumFaultEvents]uint64{}) {
		return counts, nil, errors.New("no fault points")
	}
	return counts, e, nil
}

// drawFault picks one seed's crash point from the calibration counts: an
// event class that occurred, then the 1-based occurrence to crash on. Each
// oracle passes its own salt.
func drawFault(seed, salt uint64, counts [pmem.NumFaultEvents]uint64) *pmem.FaultPlan {
	st := seed ^ salt
	var evs []pmem.FaultEvent
	for ev := 0; ev < pmem.NumFaultEvents; ev++ {
		if counts[ev] > 0 {
			evs = append(evs, pmem.FaultEvent(ev))
		}
	}
	ev := evs[splitmix(&st)%uint64(len(evs))]
	return &pmem.FaultPlan{Event: ev, N: 1 + splitmix(&st)%counts[ev], Seed: seed}
}

// catchCrash runs f and reports whether an injected crash fired inside it.
// Any other panic propagates.
func catchCrash(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if !pmem.IsInjectedCrash(r) {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// crashAndRecover crashes the cell's memory system and recovers an engine
// from what survived, with the config the cell was built with.
func crashAndRecover(cell Cell, e *core.Engine) (*core.Engine, *core.RecoveryReport, error) {
	return core.Recover(e.System().Crash(), cellConfig(cell.Config))
}

// applyTxn executes one generated op inside a transaction.
func applyTxn(tx *core.Txn, e *core.Engine, op txnOp) error {
	kv := e.Table("kv")
	acct := e.Table("acct")
	var b [8]byte
	switch op.kind {
	case opUpdate:
		binary.LittleEndian.PutUint64(b[:], uint64(op.val))
		return tx.UpdateField(kv, op.k1, 1, b[:])
	case opTransfer:
		s := acct.Schema()
		buf := make([]byte, s.TupleSize())
		if err := tx.Read(acct, op.k1, buf); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(b[:], uint64(s.GetInt64(buf, 1)-op.val))
		if err := tx.UpdateField(acct, op.k1, 1, b[:]); err != nil {
			return err
		}
		if err := tx.Read(acct, op.k2, buf); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(b[:], uint64(s.GetInt64(buf, 1)+op.val))
		return tx.UpdateField(acct, op.k2, 1, b[:])
	case opInsert:
		s := kv.Schema()
		buf := make([]byte, s.TupleSize())
		s.PutUint64(buf, 0, op.k1)
		s.PutInt64(buf, 1, op.val)
		return tx.Insert(kv, op.k1, buf)
	case opDelete:
		return tx.Delete(kv, op.k1)
	default: // opRollback
		binary.LittleEndian.PutUint64(b[:], uint64(op.val))
		if err := tx.UpdateField(kv, op.k1, 1, b[:]); err != nil {
			return err
		}
		return core.ErrRollback
	}
}

// execOne runs a single transaction, updating the model. It reports whether
// an injected crash fired during the attempt (leaving the model's in-flight
// set populated for the oracle).
func execOne(e *core.Engine, m *model, op txnOp) (crashed bool) {
	m.begin(m.writesFor(op))
	return catchCrash(func() {
		if err := e.Run(op.worker, func(tx *core.Txn) error { return applyTxn(tx, e, op) }); err == nil {
			m.ack()
		} else {
			m.abortAck()
		}
	})
}

func runWorkload(e *core.Engine, m *model, ops []txnOp) (crashed bool) {
	for _, op := range ops {
		if execOne(e, m, op) {
			return true
		}
	}
	return false
}

// runSeed executes one crash seed end to end and returns the oracle
// violations plus the recovery report (nil if the build failed). With
// opts.TraceDir set, a failing seed's pre-crash trace is written there and
// its path returned.
func runSeed(cell Cell, opts Options, seed uint64, counts [pmem.NumFaultEvents]uint64, winBase, winSize uint64) (viol []string, rep *core.RecoveryReport, plan *pmem.FaultPlan, crashed bool, tracePath string) {
	m := newModel()
	e, err := buildCell(cell, cellSpecs(), m.loadRow)
	if err != nil {
		return []string{fmt.Sprintf("setup: %v", err)}, nil, nil, false, ""
	}
	// Arm an unsampled tracer so a violating seed's full transaction history
	// is available; the workload is sequential, so Dump after the crash is
	// safe.
	var tracer *obs.Tracer
	if opts.TraceDir != "" {
		tracer = obs.NewTracer(cellThreads, obs.TraceOptions{Sample: 1})
		e.Arm(tracer, nil)
	}
	// Under ADR, a quarter of the seeds also tear the in-flight XPBuffer
	// block and a quarter flip a byte in the log-window region.
	plan = drawFault(seed, 0xfa57, counts)
	if cell.Mode == pmem.ADR {
		switch seed % 4 {
		case 0:
			plan.Torn = true
		case 1:
			plan.Corrupt = true
			plan.CorruptLo = winBase
			plan.CorruptHi = winBase + winSize
		}
	}
	e.System().SetFaults(plan)
	crashed = runWorkload(e, m, genOps(txnBudget, cellThreads))

	e2, r, err := crashAndRecover(cell, e)
	if err != nil {
		viol = []string{fmt.Sprintf("recovery failed: %v", err)}
		return viol, nil, plan, crashed, dumpSeedTrace(opts.TraceDir, cell, seed, tracer)
	}
	rep = r

	// Torn and corrupted media void the strict guarantee by construction;
	// those seeds always use the containment oracle.
	strict := cell.Strict() && !plan.Torn && !plan.Corrupt
	viol = verify(e2, m, strict)

	// Post-recovery usability: the survivor must accept new commits. Under
	// the relaxed oracle a row can legitimately vanish wholesale (a torn
	// block or an arbitrary eviction order may persist an old version's
	// invalidation but not its replacement), so ErrNotFound on the update is
	// tolerated there — the worker then proves writability with a fresh
	// insert instead.
	for w := 0; w < cellThreads; w++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(5000+w))
		err := e2.Run(w, func(tx *core.Txn) error {
			return tx.UpdateField(e2.Table("acct"), uint64(w+1), 1, b[:])
		})
		if !strict && errors.Is(err, core.ErrNotFound) {
			err = e2.Run(w, func(tx *core.Txn) error {
				kv := e2.Table("kv")
				s := kv.Schema()
				buf := make([]byte, s.TupleSize())
				key := uint64(1)<<40 + uint64(w)
				s.PutUint64(buf, 0, key)
				s.PutInt64(buf, 1, int64(5000+w))
				return tx.Insert(kv, key, buf)
			})
		}
		if err != nil {
			viol = append(viol, fmt.Sprintf("post-recovery transaction on worker %d failed: %v", w, err))
		}
	}
	if len(viol) > 0 {
		tracePath = dumpSeedTrace(opts.TraceDir, cell, seed, tracer)
	}
	return viol, rep, plan, crashed, tracePath
}

// dumpSeedTrace writes a failing seed's pre-crash trace as Chrome trace JSON
// into dir and returns the file path ("" when tracing is off or the write
// fails — a trace dump must never turn a clean verdict into an error).
func dumpSeedTrace(dir string, cell Cell, seed uint64, tracer *obs.Tracer) string {
	if tracer == nil {
		return ""
	}
	name := fmt.Sprintf("crash-%s-%s-seed%d.json",
		sanitizeName(cell.Config.Name), ModeName(cell.Mode), seed)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	label := fmt.Sprintf("%s seed %d (pre-crash)", cell, seed)
	err = obs.WriteChromeTrace(f, []obs.NamedDump{{Label: label, Dump: tracer.Dump()}})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return ""
	}
	return path
}

// sanitizeName makes an engine preset name filesystem-safe ("Inp NoFlush" →
// "Inp-NoFlush").
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, s)
}

// RunCell runs the cell across opts.Seeds crash seeds and aggregates the
// verdict.
func RunCell(cell Cell, opts Options) CellResult {
	opts = opts.withDefaults()
	res := CellResult{Cell: cell, Strict: cell.Strict(), Seeds: opts.Seeds}
	if opts.TraceDir != "" {
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			res.Violations = append(res.Violations, Violation{Seed: 0, Detail: fmt.Sprintf("trace dir: %v", err)})
			return res
		}
	}
	counts, e, err := calibrate(cell, cellSpecs(), func(e *core.Engine) error {
		runWorkload(e, newModel(), genOps(txnBudget, cellThreads))
		return nil
	})
	if err != nil {
		res.Violations = append(res.Violations, Violation{Seed: 0, Detail: fmt.Sprintf("calibration: %v", err)})
		return res
	}
	winBase, winSize := e.LogWindowRange()
	for s := 0; s < opts.Seeds; s++ {
		seed := opts.FirstSeed + uint64(s)
		viol, rep, plan, crashed, tracePath := runSeed(cell, opts, seed, counts, winBase, winSize)
		if crashed {
			res.Crashes++
		}
		if plan != nil {
			if plan.Torn {
				res.Torn++
			}
			if plan.Corrupt {
				res.Corrupt++
			}
		}
		if rep != nil {
			res.DetectedTorn += rep.TornRecords
			res.DetectedCorrupt += rep.CorruptRecords
			res.DroppedUnsealed += rep.DroppedUnsealed
		}
		for _, v := range viol {
			res.Violations = append(res.Violations, Violation{Seed: seed, Detail: v, TracePath: tracePath})
		}
	}
	return res
}

// sortedTouched returns the model's touched keys in deterministic order.
func sortedTouched(m *model) []cellKey {
	keys := make([]cellKey, 0, len(m.touched))
	for ck := range m.touched {
		keys = append(keys, ck)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].key < keys[j].key
	})
	return keys
}
