// Package index provides the two persistent-memory index structures the
// paper evaluates Falcon with: a bucketized hash table in the spirit of Dash
// (Lu et al., VLDB '20) and a B+-tree with 256 B nodes and leaf links in the
// spirit of NBTree (Zhang et al., VLDB '22).
//
// Both structures are written against pmem.Space, so the same code serves
// the paper's two placements: on NVM (index survives crashes structurally —
// "instant recovery") and in DRAM (faster probes, but the index must be
// rebuilt from a full heap scan after a crash). Node and bucket sizes equal
// the 256 B NVM media block, the layout trick prior persistent indexes use
// to avoid write amplification (§3.2).
//
// Because Falcon updates tuples in place, tuple addresses never change and
// indexes are not touched by updates at all — only by inserts and deletes.
// Out-of-place engines additionally use Update to repoint keys at new tuple
// versions.
package index

import (
	"errors"

	"falcon/internal/sim"
)

// Kind identifies an index structure.
type Kind uint8

const (
	// Hash is the Dash-style bucketized hash index (point lookups only).
	Hash Kind = iota
	// BTree is the NBTree-style B+-tree (point lookups and range scans).
	BTree
)

func (k Kind) String() string {
	switch k {
	case Hash:
		return "hash"
	case BTree:
		return "btree"
	default:
		return "unknown"
	}
}

// ErrFull is returned when an index cannot accommodate another key.
var ErrFull = errors.New("index: full")

// ErrDuplicate is returned by Insert when the key is already present.
var ErrDuplicate = errors.New("index: duplicate key")

// ErrCorrupt is returned by Scan when the structure it walks cannot be a
// sound index: a leaf chain that does not ascend or does not end.
var ErrCorrupt = errors.New("index: structure is corrupt")

// ErrUnordered is returned by Scan on indexes without ordered iteration.
var ErrUnordered = errors.New("index: structure does not support scans")

// Index maps uint64 keys to uint64 values (tuple slot numbers).
// Implementations are safe for concurrent use.
type Index interface {
	// Get returns the value for key.
	Get(clk *sim.Clock, key uint64) (uint64, bool)
	// Insert adds key with val; ErrDuplicate if present.
	Insert(clk *sim.Clock, key, val uint64) error
	// Update repoints an existing key; it reports whether the key existed.
	Update(clk *sim.Clock, key, val uint64) bool
	// Delete removes key, reporting whether it existed.
	Delete(clk *sim.Clock, key uint64) bool
	// Scan iterates keys >= from in ascending order until fn returns false.
	// Hash indexes return ErrUnordered.
	Scan(clk *sim.Clock, from uint64, fn func(key, val uint64) bool) error
	// Kind identifies the structure.
	Kind() Kind
	// Bytes is the persistent footprint of the region the index occupies.
	Bytes() uint64
}

// hash64 is a Fibonacci/splitmix-style mixer for bucket selection.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
