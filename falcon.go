// Package falcon is a Go reproduction of "Falcon: Fast OLTP Engine for
// Persistent Cache and Non-Volatile Memory" (SOSP 2023).
//
// It bundles a functional simulation of eADR-enabled persistent memory (CPU
// cache inside the persistence domain, Optane-style 256 B media blocks with
// an XPBuffer write-combining layer) with a full OLTP storage engine built
// on it: Falcon's small log window and selective data flush, plus the
// baseline engines the paper compares against (Inp, Outp, ZenS) as
// configuration presets. Throughput and latency are measured in virtual
// time; see DESIGN.md for the methodology.
//
// Quick start:
//
//	db, err := falcon.Open(falcon.Options{
//	    Config:  falcon.FalconConfig(),
//	    Tables:  []falcon.TableSpec{{Name: "kv", Schema: schema, Capacity: 1 << 20, IndexKind: falcon.Hash}},
//	})
//	err = db.Run(0, func(tx *falcon.Txn) error {
//	    return tx.Insert(db.Table("kv"), key, payload)
//	})
package falcon

import (
	"falcon/internal/cc"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// Re-exported engine types. The engine API lives on these.
type (
	// Engine is an OLTP storage engine instance.
	Engine = core.Engine
	// Txn is a transaction handle (single worker thread).
	Txn = core.Txn
	// Table is one relation.
	Table = core.Table
	// Config selects the engine design point (update scheme, log scheme,
	// flush policy, index placement, CC algorithm).
	Config = core.Config
	// TableSpec declares a table at engine creation.
	TableSpec = core.TableSpec
	// RecoveryReport details where recovery time went.
	RecoveryReport = core.RecoveryReport
	// Schema describes a fixed-width tuple layout.
	Schema = layout.Schema
	// Column is one schema column.
	Column = layout.Column
	// System is the simulated persistent-memory machine.
	System = pmem.System
	// MemConfig parameterizes the simulated memory system.
	MemConfig = pmem.Config
	// Clock is a worker's virtual clock.
	Clock = sim.Clock
	// CCAlgo selects a concurrency-control algorithm.
	CCAlgo = cc.Algo
	// StatsSnapshot is one observability snapshot — commit-path phase nanos,
	// abort taxonomy, WAL/hot-set gauges, pmem hardware counters — with
	// Text/JSON renderers and Sub for warmup exclusion (Engine.ObsSnapshot).
	StatsSnapshot = obs.Snapshot
)

// Column kinds.
const (
	Int64   = layout.Int64
	Uint64  = layout.Uint64
	Float64 = layout.Float64
	Bytes   = layout.Bytes
)

// Index kinds.
const (
	// Hash is the Dash-style bucketized hash index (point lookups).
	Hash = index.Hash
	// BTree is the NBTree-style ordered index (lookups + range scans).
	BTree = index.BTree
)

// Concurrency-control algorithms (paper §5.2.1).
const (
	TwoPL = cc.TwoPL
	TO    = cc.TO
	OCC   = cc.OCC
	MV2PL = cc.MV2PL
	MVTO  = cc.MVTO
	MVOCC = cc.MVOCC
)

// Persistence domains of the simulated cache.
const (
	// EADR keeps the CPU cache in the persistence domain (the paper's
	// setting).
	EADR = pmem.EADR
	// ADR loses unflushed cache lines on crash (first-generation NVM).
	ADR = pmem.ADR
)

// Common errors.
var (
	ErrConflict     = core.ErrConflict
	ErrNotFound     = core.ErrNotFound
	ErrDuplicateKey = core.ErrDuplicateKey
	ErrRollback     = core.ErrRollback
	ErrCanceled     = core.ErrCanceled
	ErrTxnTooLarge  = core.ErrTxnTooLarge
	ErrTableFull    = core.ErrTableFull
)

// Engine presets (paper Table 1 / Figure 10).
var (
	FalconConfig          = core.FalconConfig
	FalconNoFlushConfig   = core.FalconNoFlushConfig
	FalconAllFlushConfig  = core.FalconAllFlushConfig
	FalconDRAMIndexConfig = core.FalconDRAMIndexConfig
	InpConfig             = core.InpConfig
	InpNoFlushConfig      = core.InpNoFlushConfig
	InpSLWConfig          = core.InpSmallLogWindowConfig
	InpHTTConfig          = core.InpHotTupleTrackingConfig
	OutpConfig            = core.OutpConfig
	ZenSConfig            = core.ZenSConfig
	ZenSNoFlushConfig     = core.ZenSNoFlushConfig
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return layout.NewSchema(cols...) }

// Options bundles everything Open needs.
type Options struct {
	// Config selects the engine design point; defaults to FalconConfig().
	Config Config
	// Tables declares the relations.
	Tables []TableSpec
	// Mem parameterizes the simulated memory system; zero values pick
	// defaults (eADR, 64 MiB device, 2 MiB cache).
	Mem MemConfig
}

// DB is an engine plus its simulated machine.
type DB struct {
	*Engine
}

// Open creates a fresh database on a new simulated machine.
func Open(opts Options) (*DB, error) {
	if opts.Config.Name == "" {
		opts.Config = core.FalconConfig()
	}
	sys := pmem.NewSystem(opts.Mem)
	e, err := core.New(sys, opts.Config, opts.Tables)
	if err != nil {
		return nil, err
	}
	return &DB{Engine: e}, nil
}

// Crash simulates a power failure on the database's machine and returns the
// post-crash system image, ready for Recover.
func (db *DB) Crash() *System { return db.System().Crash() }

// Recover reopens an engine from a post-crash system image.
func Recover(sys *System, cfg Config) (*DB, *RecoveryReport, error) {
	e, rep, err := core.Recover(sys, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &DB{Engine: e}, rep, nil
}

// NewSystem builds a standalone simulated machine (advanced use: sharing a
// device image across crash cycles).
func NewSystem(cfg MemConfig) *System { return pmem.NewSystem(cfg) }

// NewEngine creates an engine on an existing system.
func NewEngine(sys *System, cfg Config, tables []TableSpec) (*Engine, error) {
	return core.New(sys, cfg, tables)
}
