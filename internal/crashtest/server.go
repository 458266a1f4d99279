package crashtest

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/server"
)

// Server exactly-once cells: the same crash-at-Nth-event machinery as the
// transaction matrix, but the workload is a deterministic stream of serving
// requests executed through server.Apply — the idempotency record commits in
// the same transaction as the request's effects. A seed crashes mid-request,
// recovers, and retries the interrupted request under its original
// idempotency key. The oracle demands exactly-once: if the original attempt
// committed, the retry is answered from the idempotency table with the
// original digest; if it did not, the retry executes fresh — and either way
// the request's effects land exactly once, proven by a final strict
// comparison of every touched row against the golden model (`add`, the
// read-modify-write probe, makes a double execution visible as a double
// increment).
//
// Only strict cells participate: under a containment-only configuration an
// acknowledged commit may legitimately vanish in the crash, which would sever
// the record⟺effects equivalence the exactly-once argument rests on.

// svReq is one generated serving request with its fixed idempotency key.
type svReq struct {
	idem uint64
	req  server.TxnRequest
}

// svModel is the golden serving-state model: exact row values plus every key
// the stream ever touched.
type svModel struct {
	rows    map[uint64]int64
	touched map[uint64]bool
}

func newSvModel() *svModel {
	return &svModel{rows: map[uint64]int64{}, touched: map[uint64]bool{}}
}

// loadRow records a bulk-loaded row.
func (m *svModel) loadRow(ck cellKey, v int64) {
	m.rows[ck.key] = v
	m.touched[ck.key] = true
}

// expect computes the results the request must produce against the current
// state, plus the post-state — held back until the attempt's outcome is
// known, mirroring the engine's atomicity.
func (m *svModel) expect(req *server.TxnRequest) ([]server.OpResult, map[uint64]int64) {
	post := make(map[uint64]int64, len(m.rows))
	for k, v := range m.rows {
		post[k] = v
	}
	results := make([]server.OpResult, 0, len(req.Ops))
	for _, op := range req.Ops {
		m.touched[op.Key] = true
		var res server.OpResult
		switch op.Op {
		case "get":
			if v, ok := post[op.Key]; ok {
				res = server.OpResult{Val: v, Found: true}
			}
		case "put", "insert":
			post[op.Key] = op.Val
			res = server.OpResult{Val: op.Val, Found: true}
		case "add":
			v := post[op.Key] + op.Val
			post[op.Key] = v
			res = server.OpResult{Val: v, Found: true}
		case "delete":
			if _, ok := post[op.Key]; ok {
				delete(post, op.Key)
				res = server.OpResult{Found: true}
			}
		}
		results = append(results, res)
	}
	return results, post
}

// genServerReqs builds the deterministic request stream. The generator tracks
// key presence so every request is designed to succeed (inserts use fresh
// keys, adds target live rows): any runtime error is then itself a violation.
func genServerReqs(budget int) []svReq {
	st := workloadSeed ^ 0x5e4e
	present := map[uint64]bool{}
	for k := uint64(1); k <= kvKeys; k++ {
		present[k] = true
	}
	liveBase := func() (uint64, bool) {
		start := 1 + splitmix(&st)%kvKeys
		for i := uint64(0); i < kvKeys; i++ {
			k := 1 + (start-1+i)%kvKeys
			if present[k] {
				return k, true
			}
		}
		return 0, false
	}
	insertNext := uint64(insertBase)
	reqs := make([]svReq, 0, budget)
	for i := 0; i < budget; i++ {
		nops := 1
		if splitmix(&st)%100 < 30 {
			nops = 2 // multi-op requests probe per-request atomicity
		}
		var ops []server.Op
		for o := 0; o < nops; o++ {
			var op server.Op
			op.Table = "kv"
			switch r := splitmix(&st) % 100; {
			case r < 45: // add on a live row — the non-idempotent probe
				if k, ok := liveBase(); ok {
					op.Op, op.Key, op.Val = "add", k, int64(1+splitmix(&st)%100)
				} else {
					op.Op, op.Key, op.Val = "put", 1+splitmix(&st)%kvKeys, int64(splitmix(&st)>>8)
					present[op.Key] = true
				}
			case r < 65:
				op.Op, op.Key, op.Val = "put", 1+splitmix(&st)%kvKeys, int64(splitmix(&st)>>8)
				present[op.Key] = true
			case r < 75:
				op.Op, op.Key, op.Val = "insert", insertNext, int64(splitmix(&st)>>8)
				present[insertNext] = true
				insertNext++
			case r < 90:
				op.Op, op.Key = "get", 1+splitmix(&st)%kvKeys
			default:
				op.Op, op.Key = "delete", 1+splitmix(&st)%kvKeys
				delete(present, op.Key)
			}
			ops = append(ops, op)
		}
		reqs = append(reqs, svReq{idem: uint64(i + 1), req: server.TxnRequest{Ops: ops}})
	}
	return reqs
}

// serverSpecs are the serving tables: kv plus the idempotency table.
func serverSpecs() []core.TableSpec {
	return server.WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: server.ServeSchema(0), Capacity: 2048,
		KeyCol: 0, IndexKind: index.Hash,
	}}, 1024)
}

// svApply runs one request through server.Apply, converting an injected
// crash panic into a flag.
func svApply(e *core.Engine, worker int, idem uint64, req *server.TxnRequest) (resp *server.TxnResponse, err error, crashed bool) {
	crashed = catchCrash(func() { resp, err = server.Apply(e, worker, idem, req, nil) })
	return resp, err, crashed
}

// ServerCellResult aggregates one server cell's seeds.
type ServerCellResult struct {
	Cell    Cell
	Seeds   int
	Crashes int // seeds whose injected crash fired mid-request
	// Replays counts post-crash retries answered from the idempotency table
	// (original attempt had committed); Reexecs counts retries that executed
	// fresh (it had not). Both must stay exactly-once either way.
	Replays    int
	Reexecs    int
	Violations []Violation
}

// Passed reports whether every seed satisfied the exactly-once oracle.
func (r ServerCellResult) Passed() bool { return len(r.Violations) == 0 }

// runServerSeed executes one crash seed end to end: run requests until the
// injected crash, recover, retry the interrupted request under its original
// idempotency key, finish the stream, and compare every touched row exactly.
func runServerSeed(cell Cell, seed uint64, counts [pmem.NumFaultEvents]uint64) (viol []string, crashed, replayed bool) {
	m := newSvModel()
	e, err := buildCell(cell, serverSpecs(), m.loadRow)
	if err != nil {
		return []string{fmt.Sprintf("setup: %v", err)}, false, false
	}
	// No torn or corrupt media: those void the strict guarantee the
	// exactly-once oracle depends on.
	e.System().SetFaults(drawFault(seed, 0x1de4, counts))

	reqs := genServerReqs(txnBudget)
	digests := make([]string, len(reqs)) // acked requests' digests, for later replay probes
	crashIdx := -1
	var crashExp, lastExp []server.OpResult
	var crashPost map[uint64]int64
	for i := range reqs {
		exp, post := m.expect(&reqs[i].req)
		resp, err, c := svApply(e, i%cellThreads, reqs[i].idem, &reqs[i].req)
		if c {
			crashIdx, crashExp, crashPost = i, exp, post
			break
		}
		if err != nil {
			return []string{fmt.Sprintf("request %d failed pre-crash: %v", i, err)}, false, false
		}
		if resp.Replayed {
			return []string{fmt.Sprintf("request %d: first execution claims replay", i)}, false, false
		}
		if want := server.DigestOf(exp); resp.Digest != want {
			return []string{fmt.Sprintf("request %d: digest %s, model wants %s", i, resp.Digest, want)}, false, false
		}
		digests[i] = resp.Digest
		lastExp = exp
		m.rows = post
	}

	e2, _, err := crashAndRecover(cell, e)
	if err != nil {
		return []string{fmt.Sprintf("recovery failed: %v", err)}, crashIdx >= 0, false
	}

	// The probe request: the one interrupted by the crash, or — if the plan's
	// event never fired mid-request — the last acked one (its retry must
	// replay).
	k := crashIdx
	if k < 0 {
		k = len(reqs) - 1
		crashExp, crashPost = lastExp, m.rows
	}
	wantDigest := server.DigestOf(crashExp)

	resp1, err, c := svApply(e2, k%cellThreads, reqs[k].idem, &reqs[k].req)
	if c || err != nil {
		return []string{fmt.Sprintf("post-crash retry of request %d failed: crash=%v err=%v", k, c, err)}, crashIdx >= 0, false
	}
	switch {
	case resp1.Replayed:
		// Original attempt committed: the stored digest must be the original
		// result's, and the effects must already be in place (checked below
		// by the final comparison against the committed post-state).
		if resp1.Digest != wantDigest {
			viol = append(viol, fmt.Sprintf("request %d: replayed digest %s != original %s", k, resp1.Digest, wantDigest))
		}
	default:
		// Original attempt did not commit: the retry executes fresh, exactly
		// once, with the same results the model predicts.
		if crashIdx < 0 {
			viol = append(viol, fmt.Sprintf("request %d committed pre-crash but its retry re-executed (idempotency record lost)", k))
		}
		if resp1.Digest != wantDigest || !reflect.DeepEqual(resp1.Results, crashExp) {
			viol = append(viol, fmt.Sprintf("request %d: fresh retry diverged from model: digest %s want %s", k, resp1.Digest, wantDigest))
		}
	}
	m.rows = crashPost

	// Second retry must always replay with a stable digest.
	resp2, err, c := svApply(e2, k%cellThreads, reqs[k].idem, &reqs[k].req)
	if c || err != nil || !resp2.Replayed || resp2.Digest != resp1.Digest {
		viol = append(viol, fmt.Sprintf("request %d: second retry not an identical replay (err=%v replayed=%v digest %s vs %s)",
			k, err, resp2 != nil && resp2.Replayed, respDigest(resp2), resp1.Digest))
	}

	// A pre-crash acked request must also replay with its original digest.
	if crashIdx > 0 {
		j := int(seed) % crashIdx
		respJ, err, c := svApply(e2, j%cellThreads, reqs[j].idem, &reqs[j].req)
		if c || err != nil || !respJ.Replayed || respJ.Digest != digests[j] {
			viol = append(viol, fmt.Sprintf("request %d (acked pre-crash): retry not an identical replay (err=%v digest %s want %s)",
				j, err, respDigest(respJ), digests[j]))
		}
	}

	// Finish the stream on the survivor.
	for i := k + 1; i < len(reqs); i++ {
		exp, post := m.expect(&reqs[i].req)
		resp, err, c := svApply(e2, i%cellThreads, reqs[i].idem, &reqs[i].req)
		if c || err != nil {
			viol = append(viol, fmt.Sprintf("request %d failed post-recovery: crash=%v err=%v", i, c, err))
			return viol, crashIdx >= 0, resp1.Replayed
		}
		if want := server.DigestOf(exp); resp.Replayed || resp.Digest != want {
			viol = append(viol, fmt.Sprintf("request %d post-recovery: replayed=%v digest %s want %s", i, resp.Replayed, resp.Digest, want))
		}
		m.rows = post
	}

	// Strict final oracle: every touched row matches the model exactly — a
	// double-executed add or a lost committed put surfaces here.
	viol = append(viol, svVerify(e2, m)...)
	return viol, crashIdx >= 0, resp1.Replayed
}

func respDigest(r *server.TxnResponse) string {
	if r == nil {
		return "<nil>"
	}
	return r.Digest
}

// svVerify compares every touched key of the recovered engine against the
// model, exactly.
func svVerify(e *core.Engine, m *svModel) []string {
	var viol []string
	kv := e.Table("kv")
	s := kv.Schema()
	keys := make([]uint64, 0, len(m.touched))
	for k := range m.touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		buf := make([]byte, s.TupleSize())
		err := e.RunRO(0, func(tx *core.Txn) error { return tx.Read(kv, k, buf) })
		want, ok := m.rows[k]
		switch {
		case errors.Is(err, core.ErrNotFound):
			if ok {
				viol = append(viol, fmt.Sprintf("kv/%d: committed row missing (want %d)", k, want))
			}
		case err != nil:
			viol = append(viol, fmt.Sprintf("kv/%d: read failed: %v", k, err))
		case !ok:
			viol = append(viol, fmt.Sprintf("kv/%d: deleted/absent row resurfaced with %d", k, s.GetInt64(buf, 1)))
		case s.GetInt64(buf, 1) != want:
			viol = append(viol, fmt.Sprintf("kv/%d: got %d want %d (double or lost execution)", k, s.GetInt64(buf, 1), want))
		}
	}
	return viol
}

// RunServerCell runs the exactly-once oracle across opts.Seeds crash seeds.
// The cell must be strict (Cell.Strict).
func RunServerCell(cell Cell, opts Options) ServerCellResult {
	opts = opts.withDefaults()
	res := ServerCellResult{Cell: cell, Seeds: opts.Seeds}
	if !cell.Strict() {
		res.Violations = append(res.Violations, Violation{Detail: "server exactly-once cells require a strict configuration"})
		return res
	}
	counts, _, err := calibrate(cell, serverSpecs(), func(e *core.Engine) error {
		for i, r := range genServerReqs(txnBudget) {
			if _, err, _ := svApply(e, i%cellThreads, r.idem, &r.req); err != nil {
				return fmt.Errorf("request %d failed: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		res.Violations = append(res.Violations, Violation{Detail: fmt.Sprintf("calibration: %v", err)})
		return res
	}
	for s := 0; s < opts.Seeds; s++ {
		seed := opts.FirstSeed + uint64(s)
		viol, crashed, replayed := runServerSeed(cell, seed, counts)
		if crashed {
			res.Crashes++
			if replayed {
				res.Replays++
			} else {
				res.Reexecs++
			}
		}
		for _, v := range viol {
			res.Violations = append(res.Violations, Violation{Seed: seed, Detail: v})
		}
	}
	return res
}
