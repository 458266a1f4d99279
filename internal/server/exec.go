package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"falcon/internal/core"
)

// errReplayed signals that the idempotency table answered the request. It
// wraps ErrRollback so the (side-effect-free) lookup transaction aborts under
// the user-rollback taxonomy and Engine.Run does not retry it.
var errReplayed = fmt.Errorf("server: idempotent replay (%w)", core.ErrRollback)

// errIdemRace signals that another in-flight execution of the same
// idempotency key committed between our lookup and our record insert; the
// caller loops back and serves the replay.
var errIdemRace = fmt.Errorf("server: idempotency-key race (%w)", core.ErrRollback)

// txnState is the memory one request uses from its body to its reply: the
// decoded ops, the results, one tuple and one idempotency record of scratch,
// and the bytes in and out. The handler keeps these in a pool, so a request
// of a steady stream allocates none of it; whoever fills a state again must
// not be able to tell what the request before left in it.
type txnState struct {
	body []byte
	req  TxnRequest
	out  []byte
	// expired is the transaction's cancellation hook, bound once to this
	// state's deadline rather than allocated per request.
	deadline time.Time
	expired  func() bool

	results  []OpResult
	digest   uint64
	replayed bool
	tuple    []byte
	idemRow  []byte
	field    [8]byte // one column value on its way into UpdateField
}

// sized returns a slice of n bytes, b's memory when it is large enough.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// response renders a committed request's outcome for the callers of Apply and
// ApplyRO, whose state is theirs alone: the response keeps its results.
func (st *txnState) response() *TxnResponse {
	resp := &TxnResponse{Outcome: "ok", Digest: hexDigest(st.digest), Replayed: st.replayed}
	if !st.replayed { // only the digest survives the idempotency table
		resp.Results = st.results
	}
	return resp
}

// Apply executes one request transaction on the given engine worker with
// exactly-once semantics: the idempotency record for idemKey is read first
// (a hit short-circuits to a replay), and on a fresh execution the record —
// key, result digest, outcome — is inserted in the SAME transaction as the
// request's effects, so a crash either persists both or neither. canceled
// (may be nil) is the deadline hook threaded into core.RunCancelable.
//
// Apply is transport-independent: the HTTP handler and the crashtest cells
// both run it, which is what lets the golden-model oracle judge the serving
// path's crash behaviour.
func Apply(e *core.Engine, worker int, idemKey uint64, req *TxnRequest, canceled func() bool) (*TxnResponse, error) {
	var st txnState
	if err := st.apply(e, worker, idemKey, req, canceled); err != nil {
		return nil, err
	}
	return st.response(), nil
}

// apply is Apply into st: results, digest and replayed hold the outcome.
func (st *txnState) apply(e *core.Engine, worker int, idemKey uint64, req *TxnRequest, canceled func() bool) error {
	idem := e.Table(IdemTable)
	if idem == nil {
		return fmt.Errorf("server: engine has no %s table (see WithIdemTable)", IdemTable)
	}
	is := idem.Schema()
	st.idemRow = sized(st.idemRow, is.TupleSize())
	row := st.idemRow
	for {
		err := e.RunCancelable(worker, canceled, func(tx *core.Txn) error {
			err := tx.Read(idem, idemKey, row)
			if err == nil {
				st.results, st.replayed = st.results[:0], true
				st.digest = is.GetUint64(row, 1)
				return errReplayed
			}
			if !errors.Is(err, core.ErrNotFound) {
				return err
			}

			if err := st.execOps(e, tx, req); err != nil {
				return err
			}
			st.digest, st.replayed = digestResults(st.results), false
			clear(row)
			is.PutUint64(row, 0, idemKey)
			is.PutUint64(row, 1, st.digest)
			is.PutInt64(row, 2, outcomeOK)
			if err := tx.Insert(idem, idemKey, row); err != nil {
				if errors.Is(err, core.ErrDuplicateKey) {
					return errIdemRace
				}
				return err
			}
			return nil
		})
		switch {
		case err == nil, errors.Is(err, errReplayed):
			return nil
		case errors.Is(err, errIdemRace):
			continue // the winner committed; next pass serves the replay
		default:
			return err
		}
	}
}

// ApplyRO executes a read-only op list (gets only) with no idempotency
// bookkeeping — reads are naturally idempotent.
func ApplyRO(e *core.Engine, worker int, req *TxnRequest, canceled func() bool) (*TxnResponse, error) {
	var st txnState
	if err := st.applyRO(e, worker, req, canceled); err != nil {
		return nil, err
	}
	return st.response(), nil
}

// applyRO is ApplyRO into st.
func (st *txnState) applyRO(e *core.Engine, worker int, req *TxnRequest, canceled func() bool) error {
	if err := getsOnly(req); err != nil {
		return err
	}
	if err := e.RunROCancelable(worker, canceled, func(tx *core.Txn) error {
		return st.execOps(e, tx, req)
	}); err != nil {
		return err
	}
	st.digest, st.replayed = digestResults(st.results), false
	return nil
}

// execOps runs the request's ops inside tx against serving-schema tables,
// leaving one result per op in st.results.
func (st *txnState) execOps(e *core.Engine, tx *core.Txn, req *TxnRequest) error {
	if cap(st.results) < len(req.Ops) {
		st.results = make([]OpResult, 0, len(req.Ops))
	}
	st.results = st.results[:0]
	for i, op := range req.Ops {
		t := e.Table(op.Table)
		if t == nil {
			return fmt.Errorf("op %d: no such table %q", i, op.Table)
		}
		s := t.Schema()
		// Every op starts from a zeroed tuple: an insert after a get must not
		// store the pad bytes the get read.
		st.tuple = sized(st.tuple, s.TupleSize())
		buf := st.tuple
		clear(buf)
		var res OpResult
		switch op.Op {
		case "get":
			err := tx.Read(t, op.Key, buf)
			switch {
			case err == nil:
				res = OpResult{Val: s.GetInt64(buf, 1), Found: true}
			case errors.Is(err, core.ErrNotFound):
				res = OpResult{Found: false}
			default:
				return err
			}
		case "put":
			binary.LittleEndian.PutUint64(st.field[:], uint64(op.Val))
			err := tx.UpdateField(t, op.Key, 1, st.field[:])
			if errors.Is(err, core.ErrNotFound) {
				s.PutUint64(buf, 0, op.Key)
				s.PutInt64(buf, 1, op.Val)
				err = tx.Insert(t, op.Key, buf)
			}
			if err != nil {
				return err
			}
			res = OpResult{Val: op.Val, Found: true}
		case "insert":
			s.PutUint64(buf, 0, op.Key)
			s.PutInt64(buf, 1, op.Val)
			if err := tx.Insert(t, op.Key, buf); err != nil {
				return err
			}
			res = OpResult{Val: op.Val, Found: true}
		case "add":
			if err := tx.Read(t, op.Key, buf); err != nil {
				return err
			}
			v := s.GetInt64(buf, 1) + op.Val
			binary.LittleEndian.PutUint64(st.field[:], uint64(v))
			if err := tx.UpdateField(t, op.Key, 1, st.field[:]); err != nil {
				return err
			}
			res = OpResult{Val: v, Found: true}
		case "delete":
			err := tx.Delete(t, op.Key)
			switch {
			case err == nil:
				res = OpResult{Found: true}
			case errors.Is(err, core.ErrNotFound):
				res = OpResult{Found: false}
			default:
				return err
			}
		default:
			return fmt.Errorf("op %d: unknown verb %q", i, op.Op)
		}
		st.results = append(st.results, res)
	}
	return nil
}

// DigestOf renders the response digest for an op-result list — the value the
// idempotency table stores and replays. The crash harness's golden model uses
// it to predict what a replayed retry must return.
func DigestOf(results []OpResult) string { return hexDigest(digestResults(results)) }

// hexDigest renders a digest as it travels: sixteen hex digits.
func hexDigest(d uint64) string {
	var b [16]byte
	return string(appendDigest(b[:0], d))
}

// digestResults hashes the op results with FNV-1a over (index, val, found):
// deterministic, order-sensitive, and cheap.
func digestResults(results []OpResult) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	for i, r := range results {
		mix(uint64(i))
		mix(uint64(r.Val))
		if r.Found {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}
