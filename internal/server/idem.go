package server

import (
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/layout"
)

// IdemTable is the name of the idempotency table. It is a first-class engine
// table: the request's effects and its idempotency record commit in ONE
// transaction, so the record exists if and only if the request's effects are
// durable — the "detectable operation" invariant the crash cells verify.
const IdemTable = "__idem"

// WithIdemTable appends the idempotency table (with the given record
// capacity) to a table list, unless one is already present. Engine tables are
// fixed at core.New, so callers do this before opening the engine. A record
// is the request key, the result digest and an outcome code.
//
// The index is a B+-tree because clients number their requests in ascending
// order (loadgen's and the benchmark's per-connection sequences): a record
// lands at a right edge whose path the cache holds, and a finished leaf
// leaves as one full-block train. A hash put every record in a cold bucket,
// one media read and one block write per request (DESIGN.md §10).
func WithIdemTable(specs []core.TableSpec, capacity uint64) []core.TableSpec {
	for _, s := range specs {
		if s.Name == IdemTable {
			return specs
		}
	}
	return append(append([]core.TableSpec(nil), specs...), core.TableSpec{
		Name: IdemTable,
		Schema: layout.NewSchema(
			layout.Column{Name: "k", Kind: layout.Uint64},
			layout.Column{Name: "digest", Kind: layout.Uint64},
			layout.Column{Name: "outcome", Kind: layout.Int64},
		),
		Capacity:  capacity,
		KeyCol:    0,
		IndexKind: index.BTree,
	})
}

// outcome codes stored in the idempotency record.
const outcomeOK int64 = 1
