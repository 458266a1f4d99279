package gen

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

func ycsbBytes(seed uint64) []byte  { return NewYCSBA(seed, 1, 50_000).AppendOps(nil, 4096) }
func serveBytes(seed uint64) []byte { return NewServe(seed, 1, 100_000, 50).AppendOps(nil, 4096) }
func leadInBytes(seed uint64) []byte {
	return []byte{byte(TPCCLeadIn(seed, 0)), byte(TPCCLeadIn(seed, 1))}
}
func poissonBytes(seed uint64) []byte {
	p := NewPoisson(seed, 0, 8000)
	var b []byte
	for i := 0; i < 4096; i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Next()))
	}
	return b
}

// The same seed reproduces every stream byte for byte; another seed does not.
func TestStreamsFollowTheSeed(t *testing.T) {
	for name, stream := range map[string]func(uint64) []byte{
		"ycsb": ycsbBytes, "serve": serveBytes, "poisson": poissonBytes, "leadin": leadInBytes,
	} {
		if !bytes.Equal(stream(7), stream(7)) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if bytes.Equal(stream(7), stream(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
	if bytes.Equal(NewYCSBA(7, 0, 50_000).AppendOps(nil, 64), NewYCSBA(7, 1, 50_000).AppendOps(nil, 64)) {
		t.Error("workers 0 and 1 share a stream")
	}
	s := NewYCSBA(7, 0, 50_000)
	s.AppendOps(nil, 100)
	c := s.Clone()
	if !bytes.Equal(c.AppendOps(nil, 64), s.AppendOps(nil, 64)) {
		t.Error("a clone does not replay its origin")
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	const n = 10_000
	z := NewZipf(n, 0.99, NewRand(1, 0))
	counts := map[uint64]int{}
	for i := 0; i < 200_000; i++ {
		k := z.Next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// Zipf(0.99) over 10k keys gives the hottest key about a tenth of draws.
	if share := float64(top) / 200_000; share < 0.05 || share > 0.2 {
		t.Errorf("hottest key share %.3f, want about 0.1", share)
	}
}

func TestMixAndPoissonRate(t *testing.T) {
	s := NewServe(3, 0, 1000, 50)
	writes := 0
	for i := 0; i < 100_000; i++ {
		op := s.Next()
		if op.Write {
			writes++
		}
		if op.Val < 1 || op.Val > 9 || op.Key >= 1000 {
			t.Fatalf("bad op %+v", op)
		}
	}
	if math.Abs(float64(writes)/100_000-0.5) > 0.01 {
		t.Errorf("write share %.3f, want 0.5", float64(writes)/100_000)
	}
	p := NewPoisson(3, 0, 8000)
	var last float64
	for i := 0; i < 80_000; i++ {
		last = p.Next().Seconds()
	}
	if math.Abs(last-10) > 0.2 {
		t.Errorf("80000 arrivals at 8000/s took %.2f s, want 10", last)
	}
}

func TestAppendBodyIsTheRequestJSON(t *testing.T) {
	for _, op := range []KVOp{{Key: 42, Write: true, Val: 7}, {Key: 9}} {
		var req struct {
			Ops []struct {
				Op, Table string
				Key       uint64
				Val       int64
			}
		}
		if err := json.Unmarshal(AppendBody(nil, "kv", op), &req); err != nil {
			t.Fatal(err)
		}
		got := req.Ops[0]
		wantOp, wantVal := "get", int64(0)
		if op.Write {
			wantOp, wantVal = "add", op.Val
		}
		if len(req.Ops) != 1 || got.Op != wantOp || got.Table != "kv" || got.Key != op.Key || got.Val != wantVal {
			t.Errorf("body for %+v decoded to %+v", op, req)
		}
	}
}
