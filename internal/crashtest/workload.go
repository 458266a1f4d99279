// Package crashtest is the crash-consistency harness: it drives a seeded
// workload against every engine preset, injects a crash at a deterministic
// mid-transaction point (optionally with torn media writes or flipped-byte
// corruption), recovers, and checks the survivor against a golden model of
// acknowledged commits. Failures carry the seed and a one-line repro
// command.
//
// Determinism is the load-bearing property: the transaction stream is
// generated up front from a workload seed and never consults execution
// state, so a calibration run (counting fault events) and every fault run
// execute the identical simulated event sequence up to the crash point.
package crashtest

import (
	"falcon/internal/layout"
)

// Cell geometry: small enough that thousands of cells run in a test, large
// enough to exercise eviction, recycling and window behaviour.
const (
	cellThreads = 2
	txnBudget   = 48 // < Threads × largeLogSlots: FlushedLog records stay window-resident
	kvKeys      = 128
	acctKeys    = 8
	acctInitBal = 1000
	insertBase  = 1000 // inserted kv keys count up from here; never collides with 1..kvKeys
)

func kvSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "key", Kind: layout.Uint64},
		layout.Column{Name: "val", Kind: layout.Int64},
	)
}

func acctSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "key", Kind: layout.Uint64},
		layout.Column{Name: "bal", Kind: layout.Int64},
	)
}

// splitmix advances a splitmix64 state and returns the next value.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type opKind uint8

const (
	opUpdate   opKind = iota // overwrite a kv value
	opTransfer               // move balance between two acct rows (multi-key atomicity probe)
	opInsert                 // insert a fresh kv key
	opDelete                 // delete a kv key (may be absent: no-op abort)
	opRollback               // update a kv value then return ErrRollback
)

type txnOp struct {
	kind   opKind
	worker int
	k1, k2 uint64
	val    int64 // update/insert value, or transfer amount
}

// genOps builds the cell's deterministic transaction sequence from the
// workload seed alone.
func genOps(wlSeed uint64, budget, threads int) []txnOp {
	st := wlSeed ^ 0x5eed
	ops := make([]txnOp, 0, budget)
	insertNext := uint64(insertBase)
	for i := 0; i < budget; i++ {
		op := txnOp{worker: i % threads}
		switch r := splitmix(&st) % 100; {
		case r < 55:
			op.kind = opUpdate
			op.k1 = 1 + splitmix(&st)%kvKeys
			op.val = int64(splitmix(&st) >> 8)
		case r < 75:
			op.kind = opTransfer
			op.k1 = 1 + splitmix(&st)%acctKeys
			b := 1 + splitmix(&st)%(acctKeys-1)
			if b >= op.k1 {
				b++
			}
			op.k2 = b
			op.val = int64(1 + splitmix(&st)%50)
		case r < 85:
			op.kind = opInsert
			op.k1 = insertNext
			op.val = int64(splitmix(&st) >> 8)
			insertNext++
		case r < 92:
			op.kind = opDelete
			op.k1 = 1 + splitmix(&st)%kvKeys
		default:
			op.kind = opRollback
			op.k1 = 1 + splitmix(&st)%kvKeys
			op.val = int64(splitmix(&st) >> 8)
		}
		ops = append(ops, op)
	}
	return ops
}

// cellKey names one logical row.
type cellKey struct {
	table string
	key   uint64
}

// row is one bulk-loaded row.
type row struct {
	ck  cellKey
	val int64
}

// initialRows lists the rows a cell starts with, in load order.
func initialRows() []row {
	var rows []row
	for k := uint64(1); k <= kvKeys; k++ {
		rows = append(rows, row{cellKey{"kv", k}, int64(k * 10)})
	}
	for k := uint64(1); k <= acctKeys; k++ {
		rows = append(rows, row{cellKey{"acct", k}, acctInitBal})
	}
	return rows
}

// write is one intended row mutation of an attempted transaction. pre is the
// expected value if the transaction did not commit, post if it did; nil
// means absent (not yet inserted, or deleted).
type write struct {
	ck        cellKey
	pre, post *int64
}

// model is the golden host-side truth the oracle checks recovery against.
type model struct {
	committed map[cellKey]int64          // exact value of every acked live row
	seen      map[cellKey]map[int64]bool // every value ever intended for the row (incl. load)
	touched   map[cellKey]bool
	inFlight  []write // write set of the attempt in progress; nil when quiescent
}

func newModel() *model {
	return &model{
		committed: make(map[cellKey]int64),
		seen:      make(map[cellKey]map[int64]bool),
		touched:   make(map[cellKey]bool),
	}
}

func (m *model) note(ck cellKey, v int64) {
	m.touched[ck] = true
	s := m.seen[ck]
	if s == nil {
		s = make(map[int64]bool)
		m.seen[ck] = s
	}
	s[v] = true
}

// loadRow records a bulk-loaded row (durable before the fault plan arms).
func (m *model) loadRow(ck cellKey, v int64) {
	m.committed[ck] = v
	m.note(ck, v)
}

func (m *model) get(ck cellKey) *int64 {
	if v, ok := m.committed[ck]; ok {
		c := v
		return &c
	}
	return nil
}

// writesFor derives op's intended write set from the current committed
// state. Rollback ops intend no durable change (pre == post), so a crash
// mid-rollback still demands the pre state.
func (m *model) writesFor(op txnOp) []write {
	switch op.kind {
	case opUpdate:
		v := op.val
		return []write{{ck: cellKey{"kv", op.k1}, pre: m.get(cellKey{"kv", op.k1}), post: &v}}
	case opTransfer:
		a, b := cellKey{"acct", op.k1}, cellKey{"acct", op.k2}
		pa, pb := m.get(a), m.get(b)
		if pa == nil || pb == nil {
			return nil // acct rows are never deleted; defensive
		}
		na, nb := *pa-op.val, *pb+op.val
		return []write{{ck: a, pre: pa, post: &na}, {ck: b, pre: pb, post: &nb}}
	case opInsert:
		v := op.val
		return []write{{ck: cellKey{"kv", op.k1}, pre: nil, post: &v}}
	case opDelete:
		return []write{{ck: cellKey{"kv", op.k1}, pre: m.get(cellKey{"kv", op.k1}), post: nil}}
	default: // opRollback
		pre := m.get(cellKey{"kv", op.k1})
		return []write{{ck: cellKey{"kv", op.k1}, pre: pre, post: pre}}
	}
}

// begin records the attempt's write set before the engine runs it; if the
// crash lands mid-transaction the oracle allows pre or post atomically.
func (m *model) begin(ws []write) {
	m.inFlight = ws
	for _, w := range ws {
		m.touched[w.ck] = true
		if w.post != nil {
			m.note(w.ck, *w.post)
		}
	}
}

// ack applies the in-flight write set: the engine acknowledged the commit.
func (m *model) ack() {
	for _, w := range m.inFlight {
		if w.post == nil {
			delete(m.committed, w.ck)
		} else {
			m.committed[w.ck] = *w.post
		}
	}
	m.inFlight = nil
}

// abortAck clears the in-flight set: the engine returned an error, so no
// durable change may be visible.
func (m *model) abortAck() { m.inFlight = nil }
