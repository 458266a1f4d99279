package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/pmem"
)

// oracleParse is ParseRequest as it was while encoding/json did all of it:
// the definition the codec is held to.
func oracleParse(body []byte) (*TxnRequest, error) {
	var req TxnRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if err := validate(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// staleRequest is what a pooled state holds when a request arrives: another
// request's ops, visible to any decoder that does not overwrite every field.
func staleRequest() TxnRequest {
	stale := make([]Op, 6)
	for i := range stale {
		stale[i] = Op{Op: "delete", Table: "stale", Key: 77, Val: -77}
	}
	return TxnRequest{Ops: stale[:3]}
}

func checkAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oracleParse(body)
	pooled := staleRequest()
	pooledErr := parse(&pooled, body)
	owned, ownedErr := ParseRequest(body)
	for _, got := range []struct {
		how string
		req *TxnRequest
		err error
	}{{"pooled parse", &pooled, pooledErr}, {"ParseRequest", owned, ownedErr}} {
		switch {
		case (got.err == nil) != (wantErr == nil):
			t.Fatalf("%s of %q: err %v, encoding/json says %v", got.how, body, got.err, wantErr)
		case wantErr != nil && got.err.Error() != wantErr.Error():
			t.Fatalf("%s of %q: error %q, encoding/json says %q", got.how, body, got.err, wantErr)
		case wantErr == nil && !reflect.DeepEqual(got.req, want):
			t.Fatalf("%s of %q: %+v, encoding/json says %+v", got.how, body, got.req, want)
		}
	}
}

// compactSeeds are what benchmark/gen, the client and loadgen send, with the
// members in another order once.
var compactSeeds = []string{
	`{"ops":[{"op":"add","table":"kv","key":4711,"val":7}]}`,
	`{"ops":[{"op":"get","table":"kv","key":0}]}`,
	`{"ops":[{"op":"insert","table":"kv","key":10,"val":100},{"op":"get","table":"kv","key":10}]}`,
	`{"ops":[{"op":"delete","table":"a<b>&c","key":9999999999999999999,"val":999999999999999999}]}`,
	`{"ops":[{"key":1,"val":2,"table":"kv","op":"put"}]}`,
}

// nearMissSeeds are all encoding/json's to judge.
var nearMissSeeds = []string{
	`{"ops":[{"op":"put","table":"kv","key":18446744073709551615,"val":-9223372036854775808}]}`, // valid, and a digit too long each
	`{"ops":[{"op":"get","op":"put","table":"kv","key":1}]}`,
	`{"ops":[{"op":"put","table":"kv","key":1,"val":2,"val":3}]}`,
	`{"ops":[{"op":"get","table":"kv","key":1}],"ops":[{"op":"put","table":"kv"}]}`,
	`{"OPS":[{"Op":"get","TABLE":"kv","Key":1}]}`,
	`{"ops":[{"op":"get","table":"kv","key":01}]}`,
	`{"ops":[{"op":"get","table":"kv","key":1.0}]}`,
	`{"ops":[{"op":"get","table":"kv","key":1e3}]}`,
	`{"ops":[{"op":"get","table":"kv","key":-0}]}`,
	`{"ops":[{"op":"put","table":"kv","key":1,"val":-0}]}`,
	`{"ops":[{"op":"put","table":"kv","key":1,"val":-}]}`,
	`{"ops":[{"op":"get","table":"kv","key":18446744073709551616}]}`,
	`{"ops":[{"op":"get","table":"kv","key":99999999999999999999}]}`,
	`{"ops":[{"op":"put","table":"kv","key":1,"val":9223372036854775808}]}`,
	`{"ops":[{"op":"frob","table":"kv","key":1}]}`,
	`{"ops":[{"op":"get","table":"kv","key":1,"ttl":5}]}`,
	`{"ops":[{"op":"get","table":"","key":1}]}`,
	`{"ops":[{"op":"get","key":1}]}`,
	`{"ops":[{"table":"kv","key":1}]}`,
	`{"ops":[{"op":"get","table":"k\u0076","key":1}]}`,
	"{\"ops\":[{\"op\":\"get\",\"table\":\"k\xffv\",\"key\":1}]}",
	`{"ops":[{"op":"get","table":"kv","key":null}]}`,
	`{"ops":[{"op":"get","table":"kv","key":1}]} `,
	`{"ops":[{"op":"get","table":"kv","key":1}]}x`,
	` { "ops" : [ { "op" : "get" , "table" : "kv" , "key" : 1 } ] } `,
	`{"ops":[{"op":"get","table":"kv","key":1},]}`,
	`{"ops":[{"op":"get","table":"kv","key":1,}]}`,
	`{"ops":[{}]}`,
	`{"ops":[]}`,
	`{"ops":null}`,
	`{"ops":[{"op":"get","table":"kv","key":1}`,
	`[]`,
	`{}`,
	``,
	`not json`,
}

// FuzzParseRequest: the handler's decoder and encoding/json agree on every
// body — accepted or not, what it decodes to, and the words of the error —
// whether the decoder starts from fresh memory or from a used state.
func FuzzParseRequest(f *testing.F) {
	for _, s := range append(compactSeeds, nearMissSeeds...) {
		f.Add([]byte(s))
	}
	marshalled, _ := json.Marshal(&TxnRequest{Ops: []Op{
		{Op: "add", Table: "kv", Key: 1, Val: math.MinInt64}, {Op: "get", Table: "kv", Key: math.MaxUint64},
	}})
	f.Add(marshalled)
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstOracle(t, body) })
}

// TestCompactDecoderTakesTheCommonForm: the bodies the clients send must not
// fall back (or the fast path is dead code that the fuzz test cannot see).
func TestCompactDecoderTakesTheCommonForm(t *testing.T) {
	for _, s := range compactSeeds {
		if _, ok := decodeCompact(nil, []byte(s)); !ok {
			t.Errorf("fell back to encoding/json on %s", s)
		}
	}
	marshalled, _ := json.Marshal(&TxnRequest{Ops: []Op{{Op: "add", Table: "kv", Key: 3, Val: -4}, {Op: "get", Table: "kv"}}})
	if _, ok := decodeCompact(nil, marshalled); !ok {
		t.Errorf("fell back to encoding/json on json.Marshal's own %s", marshalled)
	}
	for _, s := range nearMissSeeds {
		if _, ok := decodeCompact(nil, []byte(s)); ok && s != `{"ops":[{"op":"put","table":"kv","key":1,"val":-0}]}` {
			t.Errorf("did not leave %s to encoding/json", s)
		}
	}
}

// TestOKReplyMatchesEncodingJSON: the appended 200 reply is, byte for byte,
// what json.NewEncoder makes of the same TxnResponse.
func TestOKReplyMatchesEncodingJSON(t *testing.T) {
	many := make([]OpResult, 40)
	for i := range many {
		many[i] = OpResult{Val: int64(i*i) - 300, Found: i%3 != 0}
	}
	for _, results := range [][]OpResult{
		nil,
		{},
		{{Val: 1, Found: true}},
		{{Val: 0, Found: false}},
		{{Val: math.MinInt64, Found: true}, {Val: math.MaxInt64, Found: false}},
		many,
	} {
		for _, replayed := range []bool{false, true} {
			for _, digest := range []uint64{0, 1, 0x00f0_0000_0000_000a, math.MaxUint64, digestResults(results)} {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(&TxnResponse{
					Outcome: "ok", Results: results, Digest: fmt.Sprintf("%016x", digest), Replayed: replayed,
				}); err != nil {
					t.Fatal(err)
				}
				got := appendOK([]byte("left over"), results, digest, replayed)[len("left over"):]
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("results %v digest %x replayed %v:\n got %q\nwant %q", results, digest, replayed, got, want.Bytes())
				}
			}
		}
	}
	if got, want := DigestOf(many), fmt.Sprintf("%016x", digestResults(many)); got != want {
		t.Fatalf("DigestOf = %s, want %s", got, want)
	}
}

// TestUsedStateLeaksNothing: a request that runs on a state another request
// has used produces the same reply and the same stored bytes as on a fresh
// one. The first request leaves behind more ops than the second has, another
// table's name, results, and a tuple buffer full of a padded row's bytes.
func TestUsedStateLeaksNothing(t *testing.T) {
	const pad = 24
	newEngine := func() *core.Engine {
		specs := WithIdemTable([]core.TableSpec{
			{Name: "kv", Schema: ServeSchema(pad), Capacity: 1 << 10, KeyCol: 0, IndexKind: index.Hash},
			{Name: "kw", Schema: ServeSchema(pad), Capacity: 1 << 10, KeyCol: 0, IndexKind: index.Hash},
		}, 1<<10)
		cfg := core.FalconConfig()
		cfg.Threads = 1
		e, err := core.New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		// One row whose pad bytes are not zero, for a get to drag through the
		// tuple buffer.
		kv := e.Table("kv")
		row := bytes.Repeat([]byte{0xAB}, kv.Schema().TupleSize())
		kv.Schema().PutUint64(row, 0, 1)
		kv.Schema().PutInt64(row, 1, 11)
		if err := e.Run(0, func(tx *core.Txn) error { return tx.Insert(kv, 1, row) }); err != nil {
			t.Fatal(err)
		}
		return e
	}
	serve := func(e *core.Engine, st *txnState, idem uint64, body string) string {
		if err := parse(&st.req, []byte(body)); err != nil {
			return "parse: " + err.Error()
		}
		if err := st.apply(e, 0, idem, &st.req, nil); err != nil {
			return "apply: " + err.Error()
		}
		st.out = appendOK(st.out[:0], st.results, st.digest, st.replayed)
		return string(st.out)
	}
	steps := []string{
		`{"ops":[{"op":"get","table":"kv","key":1},{"op":"put","table":"kv","key":1,"val":5},{"op":"add","table":"kv","key":1,"val":9},{"op":"get","table":"kv","key":1}]}`,
		`{"ops":[{"op":"insert","table":"kw","key":2}]}`,                                             // no val: 0, not the 9 before it
		`{"ops":[{"op":"get","table":"kv","key":1},{"op":"put","table":"kw","key":3,"val":33}]}`,     // put of a missing key inserts
		`{"ops":[{"table":"kv","op":"get","key":2},{"table":"kw","op":"get","key":2}]}`,              // kv has no key 2
		`{"ops":[{"op":"get","table":"kw","key":2},{"op":"get","table":"kw","key":3,"extra":true}]}`, // encoding/json's path
		`{"ops":[{"op":"delete","table":"kw"}]}`,                                                     // no key either
	}
	used, usedEngine := new(txnState), newEngine()
	freshEngine := newEngine()
	for i, body := range steps {
		got := serve(usedEngine, used, uint64(100+i), body)
		want := serve(freshEngine, new(txnState), uint64(100+i), body)
		if got != want || strings.HasPrefix(got, "parse:") || strings.HasPrefix(got, "apply:") {
			t.Fatalf("step %d %s:\n used state %q\nfresh state %q", i, body, got, want)
		}
	}
	// Replays on the used state: digest only, none of the results above.
	if got, want := serve(usedEngine, used, 100, steps[0]), serve(freshEngine, new(txnState), 100, steps[0]); got != want || !strings.Contains(got, `"replayed":true`) || strings.Contains(got, "results") {
		t.Fatalf("replay: used state %q, fresh state %q", got, want)
	}
	// The rows the used state inserted carry zeroed pad bytes, not 0xAB.
	kw := usedEngine.Table("kw")
	row := make([]byte, kw.Schema().TupleSize())
	for _, key := range []uint64{2, 3} {
		if err := usedEngine.RunRO(0, func(tx *core.Txn) error { return tx.Read(kw, key, row) }); err != nil {
			t.Fatal(err)
		}
		if got := row[kw.Schema().Offset(2):]; !bytes.Equal(got, make([]byte, pad)) {
			t.Fatalf("kw[%d] was stored with another row's pad bytes: %x", key, got)
		}
	}
}
