// Package server is the networked serving front-end over core.Engine: an
// HTTP request path that runs each request to completion on its connection's
// goroutine over a bounded set of engine-worker slots, a deadline-aware
// admission controller that sheds before saturation, and exactly-once retry
// semantics backed by an idempotency table stored as a first-class engine
// table (a "detectable operation": after a timeout or crash, a retried
// request can tell whether its original attempt took effect, and if so gets
// the original result digest back without re-executing).
//
// Served tables use the serving schema: a uint64 key in column 0 and an
// int64 value in column 1 (ServeSchema builds one). Transactions are
// submitted as op lists; `add` is the deliberately non-idempotent probe the
// exactly-once machinery is judged by.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"falcon/internal/core"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/layout"
)

// Op is one operation inside a request transaction.
type Op struct {
	// Op is the verb: "get", "put" (upsert), "insert" (duplicate is an
	// error), "add" (read-modify-write: value += Val, result is the new
	// value — non-idempotent, so retries must not re-execute), or "delete".
	Op string `json:"op"`
	// Table names the target table (must use the serving schema).
	Table string `json:"table"`
	// Key is the primary key.
	Key uint64 `json:"key"`
	// Val is the value for put/insert, the delta for add; ignored otherwise.
	Val int64 `json:"val,omitempty"`
}

// TxnRequest is one transaction: its ops commit atomically.
type TxnRequest struct {
	Ops []Op `json:"ops"`
}

// OpResult is one op's outcome inside a committed transaction.
type OpResult struct {
	// Val is the value read (get), written (put/insert), the new value
	// (add), or 0 (delete).
	Val int64 `json:"val"`
	// Found reports key presence: false for a get/delete of a missing key.
	Found bool `json:"found"`
}

// TxnResponse is the reply for a transaction request.
type TxnResponse struct {
	// Outcome is "ok" for a commit (fresh or replayed) and "error" otherwise.
	Outcome string `json:"outcome"`
	// Results holds one entry per op, in order — empty on a replay (only the
	// digest survives the idempotency table).
	Results []OpResult `json:"results,omitempty"`
	// Digest is the FNV-1a hash of the results, as fixed-width hex. On a
	// replay it is the original attempt's digest, which is how a client
	// verifies its retry observed the first execution.
	Digest string `json:"digest"`
	// Replayed reports that the idempotency table answered this request: the
	// transaction had already committed under this key and was not re-run.
	Replayed bool `json:"replayed,omitempty"`
	// Error carries the failure detail when Outcome is "error".
	Error string `json:"error,omitempty"`
}

// ServeSchema returns the fixed serving-layer tuple layout: uint64 key,
// int64 value, plus padBytes of payload filler.
func ServeSchema(padBytes int) *layout.Schema {
	cols := []layout.Column{
		{Name: "k", Kind: layout.Uint64},
		{Name: "v", Kind: layout.Int64},
	}
	if padBytes > 0 {
		cols = append(cols, layout.Column{Name: "pad", Kind: layout.Bytes, Size: padBytes})
	}
	return layout.NewSchema(cols...)
}

// ParseRequest decodes and validates a transaction request body. It is the
// handler's own decoder run into fresh memory, so the request owns its ops.
func ParseRequest(body []byte) (*TxnRequest, error) {
	req := new(TxnRequest)
	if err := parse(req, body); err != nil {
		return nil, err
	}
	return req, nil
}

// validate applies the protocol-level rules to a decoded request.
func validate(req *TxnRequest) error {
	if len(req.Ops) == 0 {
		return fmt.Errorf("empty op list")
	}
	for i, op := range req.Ops {
		switch op.Op {
		case "get", "put", "insert", "add", "delete":
		default:
			return fmt.Errorf("op %d: unknown verb %q", i, op.Op)
		}
		if op.Table == "" {
			return fmt.Errorf("op %d: missing table", i)
		}
	}
	return nil
}

// getsOnly refuses a request that carries anything but gets: /v1/read checks
// before admission, ApplyRO for the callers that reach it directly.
func getsOnly(req *TxnRequest) error {
	for _, op := range req.Ops {
		if op.Op != "get" {
			return fmt.Errorf("server: read-only request carries %q op", op.Op)
		}
	}
	return nil
}

// statusOf is the one table from a failed transaction's error to its HTTP
// status. The error alone decides: a request that fails on a duplicate key
// and happens to finish past its deadline is still a 409.
func statusOf(err error) int {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return http.StatusNotFound // an add of a missing key
	case errors.Is(err, core.ErrDuplicateKey):
		return http.StatusConflict
	case errors.Is(err, core.ErrTxnTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrTableFull), errors.Is(err, heap.ErrHeapFull), errors.Is(err, index.ErrFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, core.ErrCanceled):
		return http.StatusGatewayTimeout // the deadline hook cut it short
	}
	return http.StatusInternalServerError
}
