// Package ycsb implements the YCSB benchmark as configured in the paper's
// §6.1: one table, an 8-byte key and 10 columns of 100 bytes (≈1 KB tuples),
// six core workloads (A–F) under Uniform and Zipfian (θ = 0.99) request
// distributions. Following the paper, update transactions read and update
// all fields of one tuple.
package ycsb

import (
	"encoding/binary"
	"fmt"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/layout"
)

// Workload identifies a YCSB core workload.
type Workload uint8

const (
	// A is update-heavy: 50% reads, 50% updates.
	A Workload = iota
	// B is read-heavy: 95% reads, 5% updates.
	B
	// C is read-only.
	C
	// D is read-latest: 95% reads, 5% inserts; reads favour recent keys.
	D
	// E is scan-heavy: 95% short scans, 5% inserts.
	E
	// F is read-modify-write: 50% reads, 50% RMW.
	F
)

func (w Workload) String() string {
	return [...]string{"YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "YCSB-E", "YCSB-F"}[w]
}

// AllWorkloads lists A–F in paper order.
var AllWorkloads = []Workload{A, B, C, D, E, F}

// Distribution selects the request key distribution.
type Distribution uint8

const (
	// Uniform draws keys uniformly.
	Uniform Distribution = iota
	// Zipfian draws keys from a Zipf(θ=0.99) distribution over the keyspace.
	Zipfian
)

func (d Distribution) String() string {
	if d == Zipfian {
		return "Zipfian"
	}
	return "Uniform"
}

// Config parameterizes a YCSB run.
type Config struct {
	// Records is the initial table size (the paper loads 256 M; scale
	// down).
	Records uint64
	// Fields is the number of value columns (default 10).
	Fields int
	// FieldBytes is the width of each value column (default 100).
	FieldBytes int
	// Workload selects A–F.
	Workload Workload
	// Distribution selects Uniform or Zipfian(0.99).
	Distribution Distribution
	// Theta is the Zipfian skew (default 0.99).
	Theta float64
	// ScanLen is the maximum scan length for workload E (default 100).
	ScanLen int
}

func (c Config) withDefaults() Config {
	if c.Records == 0 {
		c.Records = 100_000
	}
	if c.Fields == 0 {
		c.Fields = 10
	}
	if c.FieldBytes == 0 {
		c.FieldBytes = 100
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.ScanLen == 0 {
		c.ScanLen = 100
	}
	return c
}

// TableName is the YCSB table.
const TableName = "usertable"

// Schema builds the usertable schema: key column plus Fields × FieldBytes.
func Schema(cfg Config) *layout.Schema {
	cfg = cfg.withDefaults()
	cols := make([]layout.Column, 0, cfg.Fields+1)
	cols = append(cols, layout.Column{Name: "ycsb_key", Kind: layout.Uint64})
	for i := 0; i < cfg.Fields; i++ {
		cols = append(cols, layout.Column{
			Name: fmt.Sprintf("field%d", i), Kind: layout.Bytes, Size: cfg.FieldBytes,
		})
	}
	return layout.NewSchema(cols...)
}

// TableSpecs returns the engine table declaration. Workloads D/E insert, so
// capacity leaves headroom; E scans, so the primary is a btree.
func TableSpecs(cfg Config) []core.TableSpec {
	cfg = cfg.withDefaults()
	kind := index.Hash
	if cfg.Workload == E {
		kind = index.BTree
	}
	return []core.TableSpec{{
		Name:      TableName,
		Schema:    Schema(cfg),
		Capacity:  cfg.Records + cfg.Records/4 + 1024,
		KeyCol:    0,
		IndexKind: kind,
	}}
}

// Load bulk-loads the initial records (outside measurement, like the
// paper's table initialization).
func Load(e *core.Engine, cfg Config) error {
	cfg = cfg.withDefaults()
	tbl := e.Table(TableName)
	if tbl == nil {
		return fmt.Errorf("ycsb: table %q missing", TableName)
	}
	s := tbl.Schema()
	buf := make([]byte, s.TupleSize())
	perThread := cfg.Records/uint64(e.Config().Threads) + 1
	var loaded uint64
	for th := 0; th < e.Config().Threads && loaded < cfg.Records; th++ {
		for i := uint64(0); i < perThread && loaded < cfg.Records; i++ {
			key := loaded
			fillTuple(s, buf, key, cfg)
			if err := tbl.Load(th, key, buf); err != nil {
				return err
			}
			loaded++
		}
	}
	return nil
}

// fillTuple deterministically generates the tuple payload for key. Loading
// dominates the host cost of a sweep cell (every cell bulk-loads its own
// table), so the generator stores raw 64-bit xorshift words — eight payload
// bytes per state update, no per-byte mapping. Nothing in the engine or the
// driver branches on payload values, so the bytes need only be a pure
// function of (key, field): reloads and recovery comparisons see identical
// tuples, and virtual-time results are unaffected by the content choice.
func fillTuple(s *layout.Schema, buf []byte, key uint64, cfg Config) {
	s.PutUint64(buf, 0, key)
	for f := 1; f <= cfg.Fields; f++ {
		field := s.GetBytes(buf, f)
		seed := key*1099511628211 + uint64(f)
		i := 0
		for ; i+8 <= len(field); i += 8 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			binary.LittleEndian.PutUint64(field[i:], seed)
		}
		if i < len(field) {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			for x := seed; i < len(field); i++ {
				field[i] = byte(x)
				x >>= 8
			}
		}
	}
}
