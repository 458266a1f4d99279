package ycsb

import (
	"fmt"

	"falcon/internal/core"
)

// Driver issues YCSB transactions against an engine. One Driver serves all
// workers; per-worker state (generators, scratch) is internal.
type Driver struct {
	cfg     Config
	e       *core.Engine
	tbl     *core.Table
	workers []workerState
}

type workerState struct {
	zipf *zipfGen
	rng  uint64
	// insSeq counts this worker's key draws for workloads D and E: fresh
	// keys come from per-worker interleaved sequences above cfg.Records
	// (schedule-independent, unlike a shared counter).
	insSeq  uint64
	buf     []byte
	fullVal []byte
	_       [4]uint64
}

// NewDriver prepares per-worker generators. The engine must already contain
// the loaded table.
func NewDriver(e *core.Engine, cfg Config) (*Driver, error) {
	cfg = cfg.withDefaults()
	tbl := e.Table(TableName)
	if tbl == nil {
		return nil, fmt.Errorf("ycsb: table %q missing", TableName)
	}
	d := &Driver{cfg: cfg, e: e, tbl: tbl}
	d.workers = make([]workerState, e.Config().Threads)
	s := tbl.Schema()
	for w := range d.workers {
		ws := &d.workers[w]
		ws.rng = splitmix(uint64(w) + 0xD1B54A32D192ED03)
		if cfg.Distribution == Zipfian {
			ws.zipf = newZipf(cfg.Records, zipfTheta, splitmix(uint64(w)+0x9E3779B97F4A7C15))
		}
		ws.buf = make([]byte, s.TupleSize())
		ws.fullVal = make([]byte, s.TupleSize())
		fillTuple(s, ws.fullVal, 0, cfg)
	}
	return d, nil
}

// splitmix finalizes a seed into a well-mixed generator state.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (d *Driver) rand(w int) uint64 {
	ws := &d.workers[w]
	ws.rng ^= ws.rng >> 12
	ws.rng ^= ws.rng << 25
	ws.rng ^= ws.rng >> 27
	return ws.rng * 2685821657736338717
}

// key draws a request key per the configured distribution.
func (d *Driver) key(w int) uint64 {
	if d.cfg.Distribution == Zipfian {
		return scramble(d.workers[w].zipf.Next(), d.cfg.Records)
	}
	return d.rand(w) % d.cfg.Records
}

// Next executes one YCSB transaction on worker w, returning an error only on
// engine failures (conflicts are retried internally).
func (d *Driver) Next(w int) error {
	roll := d.rand(w) % 100
	switch d.cfg.Workload {
	case A:
		if roll < 50 {
			return d.doRead(w)
		}
		return d.doUpdate(w)
	case B:
		if roll < 95 {
			return d.doRead(w)
		}
		return d.doUpdate(w)
	case C:
		return d.doRead(w)
	case D:
		if roll < 95 {
			return d.doReadLatest(w)
		}
		return d.doInsert(w)
	case E:
		if roll < 95 {
			return d.doScan(w)
		}
		return d.doInsert(w)
	default: // F
		if roll < 50 {
			return d.doRead(w)
		}
		return d.doRMW(w)
	}
}

func (d *Driver) doRead(w int) error {
	key := d.key(w)
	ws := &d.workers[w]
	return d.e.RunRO(w, func(tx *core.Txn) error {
		err := tx.Read(d.tbl, key, ws.buf)
		if err == core.ErrNotFound {
			return nil // deleted/unloaded key: counts as a served request
		}
		return err
	})
}

// doUpdate reads and updates all fields of one tuple (paper §6.1: "Each
// transaction reads and updates all fields"; YCSB-A updates are blind —
// "Updates in this workload do not require the original record to be read
// first").
func (d *Driver) doUpdate(w int) error {
	key := d.key(w)
	ws := &d.workers[w]
	s := d.tbl.Schema()
	// Overwrite every value field (the whole payload after the key column).
	off := s.Offset(1)
	val := ws.fullVal[off:]
	return d.e.Run(w, func(tx *core.Txn) error {
		err := tx.Update(d.tbl, key, off, val)
		if err == core.ErrNotFound {
			return nil
		}
		return err
	})
}

func (d *Driver) doRMW(w int) error {
	key := d.key(w)
	ws := &d.workers[w]
	s := d.tbl.Schema()
	off := s.Offset(1)
	return d.e.Run(w, func(tx *core.Txn) error {
		err := tx.Read(d.tbl, key, ws.buf)
		if err == core.ErrNotFound {
			return nil
		}
		if err != nil {
			return err
		}
		// Modify: rotate the first field's first byte, then write all
		// fields back (idempotent post-image goes to the log).
		ws.buf[off]++
		return tx.Update(d.tbl, key, off, ws.buf[off:])
	})
}

func (d *Driver) doReadLatest(w int) error {
	// Read keys near this worker's own insertion frontier (reads on not-yet
	// inserted keys from other workers' residues count as served requests).
	ws := &d.workers[w]
	limit := d.cfg.Records + ws.insSeq*uint64(len(d.workers))
	span := uint64(1000)
	if limit < span {
		span = limit
	}
	key := limit - 1 - d.rand(w)%span
	return d.e.RunRO(w, func(tx *core.Txn) error {
		err := tx.Read(d.tbl, key, ws.buf)
		if err == core.ErrNotFound {
			return nil
		}
		return err
	})
}

func (d *Driver) doInsert(w int) error {
	ws := &d.workers[w]
	key := d.cfg.Records + ws.insSeq*uint64(len(d.workers)) + uint64(w)
	ws.insSeq++
	s := d.tbl.Schema()
	fillTuple(s, ws.buf, key, d.cfg)
	return d.e.Run(w, func(tx *core.Txn) error {
		err := tx.Insert(d.tbl, key, ws.buf)
		if err == core.ErrDuplicateKey {
			return nil
		}
		return err
	})
}

func (d *Driver) doScan(w int) error {
	from := d.key(w)
	n := 1 + int(d.rand(w)%maxScanLen)
	return d.e.RunRO(w, func(tx *core.Txn) error {
		_, err := tx.Scan(d.tbl, from, n, func(uint64, []byte) bool { return true })
		return err
	})
}
