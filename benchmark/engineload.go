package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"falcon/benchmark/gen"
	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/pmem"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// engineFor builds an engine on a fresh simulated machine sized for specs,
// with the simulated cache the repository gives a two-thread cell (2.5 MiB).
func engineFor(cfg core.Config, specs []core.TableSpec) (*core.Engine, error) {
	sys := pmem.NewSystem(pmem.Config{
		DeviceBytes: bench.EstimateDeviceBytes(cfg, specs),
		CacheBytes:  bench.CacheBytesFor(cfg.Threads),
	})
	return core.New(sys, cfg, specs)
}

// crashAndRecover power-fails the engine's machine and reopens it, as the
// durability checks of every workload do. The workers must be quiescent.
func crashAndRecover(e *core.Engine, rep *checkReport) (*core.Engine, error) {
	cfg := e.Config()
	sys := e.System().Crash()
	start := time.Now()
	rec, rr, err := core.Recover(sys, cfg)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	rep.recoverHost = time.Since(start)
	rep.recoverVirtualNanos = rr.TotalNanos
	rep.recordsReplayed = rr.RecordsReplayed
	return rec, nil
}

// ---- ycsb_a_zipf ----

const (
	ycsbRecords = 50_000
	ycsbWarmup  = 40_000 // ops per worker before the measured run
	// ycsbSampleMask times one op in 16 on the untraced pass.
	ycsbSampleMask = 15
	stampMagic     = 0xFA1C0B5E7A3D0001
	stampHeader    = 32
)

// stamp fills a tuple's value bytes with a self-checking image: a header
// (magic, key, worker<<56|seq, checksum of those) and a body that is a pure
// function of the checksum, so any torn or misplaced byte shows.
func stamp(dst []byte, key uint64, worker int, seq uint64) {
	ws := uint64(worker)<<56 | seq
	sum := stampSum(key, ws)
	binary.LittleEndian.PutUint64(dst[0:], stampMagic)
	binary.LittleEndian.PutUint64(dst[8:], key)
	binary.LittleEndian.PutUint64(dst[16:], ws)
	binary.LittleEndian.PutUint64(dst[24:], sum)
	x := sum | 1
	i := stampHeader
	for ; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(x >> (8 * uint(i&7)))
	}
}

func stampSum(key, ws uint64) uint64 {
	x := key*0x9E3779B97F4A7C15 ^ ws*0xC2B2AE3D27D4EB4F ^ stampMagic
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>32
}

// readStamp decodes the header of a value image. stamped is false for an
// image that never was an update (the load image); ok is false when a
// stamped header does not check out for key.
func readStamp(val []byte, key uint64) (worker int, seq uint64, stamped, ok bool) {
	if binary.LittleEndian.Uint64(val[0:]) != stampMagic {
		return 0, 0, false, true
	}
	ws := binary.LittleEndian.Uint64(val[16:])
	ok = binary.LittleEndian.Uint64(val[8:]) == key && binary.LittleEndian.Uint64(val[24:]) == stampSum(key, ws)
	return int(ws >> 56), ws & (1<<56 - 1), true, ok
}

type ycsbWorkload struct {
	opt     options
	wcfg    ycsb.Config
	e       *core.Engine
	tbl     *core.Table
	valOff  int
	streams [threads]*gen.KVStream
	warm    [threads]*gen.KVStream // the streams' state right after warm-up
	seq     [threads]uint64
	// last[w][key] is the seq of worker w's last acknowledged update of key.
	last    [threads][]uint64
	corrupt atomic.Uint64
}

func (y *ycsbWorkload) close() {}

func (y *ycsbWorkload) rewind() error {
	for w := range y.streams {
		y.streams[w] = y.warm[w].Clone()
	}
	return nil
}

func (y *ycsbWorkload) records() uint64 { return uint64(ycsbRecords / y.opt.scale) }

func (y *ycsbWorkload) setup() error {
	y.wcfg = ycsb.Config{Records: y.records(), Workload: ycsb.A, Distribution: ycsb.Zipfian}
	e, err := falconEngine(ycsb.TableSpecs(y.wcfg))
	if err != nil {
		return err
	}
	if err := ycsb.Load(e, y.wcfg); err != nil {
		return err
	}
	y.e, y.tbl = e, e.Table(ycsb.TableName)
	y.valOff = y.tbl.Schema().Offset(1)
	for w := 0; w < threads; w++ {
		y.streams[w] = gen.NewYCSBA(y.opt.seed, w, y.records())
		y.last[w] = make([]uint64, y.records())
	}
	warm := uint64(ycsbWarmup / y.opt.scale)
	_, err = runWorkers(time.Hour, func(w int, stop *atomic.Bool) error {
		st := y.newWorkerRun(w, y.streams[w], 0, nil)
		st.budget = warm
		return st.loop(stop)
	})
	for w := range y.streams {
		y.warm[w] = y.streams[w].Clone()
	}
	return err
}

// ycsbWorkerRun is one worker's share of one run.
type ycsbWorkerRun struct {
	y      *ycsbWorkload
	w      int
	stream *gen.KVStream
	rec    *spanRecorder
	lat    *latRecorder
	virt   *latRecorder
	budget uint64 // ops to run at most

	attempted, failed uint64
}

func (y *ycsbWorkload) newWorkerRun(w int, s *gen.KVStream, samples int, rec *spanRecorder) *ycsbWorkerRun {
	r := &ycsbWorkerRun{y: y, w: w, stream: s, rec: rec, lat: newLatRecorder(samples), budget: unlimited}
	if rec != nil {
		r.virt = newLatRecorder(samples)
	}
	return r
}

func (r *ycsbWorkerRun) loop(stop *atomic.Bool) error {
	y, w := r.y, r.w
	e, tbl, clk := y.e, y.tbl, y.e.Clock(w)
	buf := make([]byte, tbl.Schema().TupleSize())
	val := make([]byte, len(buf)-y.valOff)
	var key uint64
	seq := y.seq[w] // local: the two workers' counters would share a cache line
	defer func() { y.seq[w] = seq }()
	read := func(tx *core.Txn) error { return tx.Read(tbl, key, buf) }
	update := func(tx *core.Txn) error { return tx.Update(tbl, key, y.valOff, val) }
	for i := uint64(0); !stop.Load() && i < r.budget; i++ {
		op := r.stream.Next()
		key = op.Key
		timed := r.rec != nil || i&ycsbSampleMask == 0
		var t0 time.Time
		var v0 uint64
		if timed {
			t0, v0 = time.Now(), clk.Nanos()
		}
		var err error
		name := "ycsb.read"
		if op.Write {
			name = "ycsb.update"
			seq++
			stamp(val, key, w, seq)
			if err = e.Run(w, update); err == nil {
				y.last[w][key] = seq
			}
		} else if err = e.RunRO(w, read); err == nil {
			_, _, _, ok := readStamp(buf[y.valOff:], key)
			if !ok || binary.LittleEndian.Uint64(buf) != key {
				y.corrupt.Add(1)
			}
		}
		if timed {
			d := time.Since(t0)
			if op.Write {
				r.lat.add(d) // the reported latency is the update's, see README
			}
			if r.rec != nil {
				r.virt.add(time.Duration(clk.Nanos() - v0))
				if i&63 == 0 {
					r.rec.add(name, w, uint64(w)<<56|i, t0, d)
				}
			}
		}
		r.attempted++
		if err != nil {
			r.failed++
		}
	}
	return nil
}

func (y *ycsbWorkload) run(d time.Duration, rec *spanRecorder) (runStats, error) {
	samples := int(d.Seconds()*400_000/16) + 1024
	if rec != nil {
		samples *= 16
	}
	var runs [threads]*ycsbWorkerRun
	for w := range runs {
		runs[w] = y.newWorkerRun(w, y.streams[w], samples, rec)
	}
	mark := markSection(y.e)
	elapsed, err := runWorkers(d, func(w int, stop *atomic.Bool) error { return runs[w].loop(stop) })
	st := runStats{elapsed: elapsed, lat: mergeLat(runs[0].lat, runs[1].lat)}
	st.engine, st.cpu = mark.until(y.e)
	if rec != nil {
		st.virtLat = mergeLat(runs[0].virt, runs[1].virt)
	}
	for _, r := range runs {
		st.attempted += r.attempted
		st.failed += r.failed
	}
	st.ops = st.attempted - st.failed
	if n := y.corrupt.Load(); n > 0 {
		err = errors.Join(err, fmt.Errorf("%d reads returned an image that does not check out", n))
	}
	return st, err
}

// check crashes the machine, recovers, and demands of every key a
// self-consistent image that is the load image or one of the two workers'
// last acknowledged updates of that key.
func (y *ycsbWorkload) check() (checkReport, error) {
	var rep checkReport
	rec, err := crashAndRecover(y.e, &rep)
	if err != nil {
		return rep, err
	}
	golden, err := falconEngine(ycsb.TableSpecs(y.wcfg))
	if err != nil {
		return rep, err
	}
	if err := ycsb.Load(golden, y.wcfg); err != nil {
		return rep, err
	}
	rtbl, gtbl := rec.Table(ycsb.TableName), golden.Table(ycsb.TableName)
	got := make([]byte, rtbl.Schema().TupleSize())
	want := make([]byte, len(got))
	image := make([]byte, len(got)-y.valOff)
	for key := uint64(0); key < y.records(); key++ {
		if err := rec.RunRO(0, func(tx *core.Txn) error { return tx.Read(rtbl, key, got) }); err != nil {
			return rep, fmt.Errorf("key %d after recovery: %w", key, err)
		}
		if k := binary.LittleEndian.Uint64(got); k != key {
			return rep, fmt.Errorf("key %d after recovery: tuple carries key %d", key, k)
		}
		worker, seq, stamped, ok := readStamp(got[y.valOff:], key)
		switch {
		case !ok:
			return rep, fmt.Errorf("key %d after recovery: stamp header does not check out", key)
		case !stamped:
			if y.last[0][key] != 0 || y.last[1][key] != 0 {
				return rep, fmt.Errorf("key %d after recovery: load image, but updates %d/%d were acknowledged",
					key, y.last[0][key], y.last[1][key])
			}
			if err := golden.RunRO(0, func(tx *core.Txn) error { return tx.Read(gtbl, key, want) }); err != nil {
				return rep, fmt.Errorf("key %d in the golden load: %w", key, err)
			}
			if !bytes.Equal(got, want) {
				return rep, fmt.Errorf("key %d after recovery: differs from the load image", key)
			}
		default:
			if worker >= threads || seq != y.last[worker][key] {
				return rep, fmt.Errorf("key %d after recovery: holds worker %d seq %d, last acknowledged %d/%d",
					key, worker, seq, y.last[0][key], y.last[1][key])
			}
			stamp(image, key, worker, seq)
			if !bytes.Equal(got[y.valOff:], image) {
				return rep, fmt.Errorf("key %d after recovery: torn image of worker %d seq %d", key, worker, seq)
			}
		}
		rep.keysChecked++
	}
	return rep, nil
}

// ---- tpcc_mix ----

const (
	tpccWarehouses = 2
	tpccItems      = 2000
	tpccCustomers  = 120
	tpccWarmup     = 1500 // Next calls per worker after the seeded lead-in
	// tpccEpochCalls is TPC-C's fixed unit of work: a run ends when one worker
	// has made this many Next calls on a freshly loaded database, about 2 s at
	// the commit that added the benchmark. TPC-C slows down as its tables grow
	// (at that commit virtual throughput halves within 150 000 transactions),
	// so a run that simply went on until the time is up would go deeper on a
	// faster program or a faster host and report other figures, virtual ones
	// too, for the same code.
	tpccEpochCalls = 10_000
)

type tpccWorkload struct {
	opt    options
	wcfg   tpcc.Config
	e      *core.Engine
	d      *tpcc.Driver
	budget [threads]uint64 // Next calls left per worker in this epoch
}

func (t *tpccWorkload) close() {}

// rewind loads the database anew. The driver's generators live inside the
// repository's tpcc package and are seeded with constants, so a new driver
// repeats the stream of the last one call for call.
func (t *tpccWorkload) rewind() error {
	// The last epoch's database goes before the next one is built, or the peak
	// resident set would follow the collector's timing.
	t.e, t.d = nil, nil
	runtime.GC()
	return t.setup()
}

func (t *tpccWorkload) setup() error {
	warm := tpccWarmup / t.opt.scale
	epoch := uint64(tpccEpochCalls / t.opt.scale)
	// NewOrder is 45 % of the mix and each takes one order row; the order,
	// order-line and history tables hold OrderHeadroom times the preload.
	calls := threads * (gen.TPCCLeadInMax + uint64(warm) + epoch)
	preload := uint64(tpccWarehouses * tpcc.Districts * tpccCustomers / t.opt.scale)
	t.wcfg = tpcc.Config{
		Warehouses: tpccWarehouses, Items: tpccItems / t.opt.scale,
		CustomersPerDistrict: tpccCustomers / t.opt.scale,
		OrderHeadroom:        2 + int(calls*55/100/preload),
	}
	var err error
	if t.e, t.d, err = bench.NewTPCC(falconConfig(), t.wcfg); err != nil {
		return err
	}
	_, err = runWorkers(time.Hour, func(w int, _ *atomic.Bool) error {
		for i, n := 0, gen.TPCCLeadIn(t.opt.seed, w)+warm; i < n; i++ {
			if err := t.d.Next(w); err != nil {
				return err
			}
		}
		t.budget[w] = epoch
		return nil
	})
	return err
}

func (t *tpccWorkload) run(d time.Duration, rec *spanRecorder) (runStats, error) {
	var lats, virts [threads]*latRecorder
	var attempted, failed [threads]uint64
	for w := range lats {
		lats[w], virts[w] = newLatRecorder(int(t.budget[w])), newLatRecorder(0)
		if rec != nil {
			virts[w] = newLatRecorder(int(t.budget[w]))
		}
	}
	mark := markSection(t.e)
	elapsed, err := runWorkers(d, func(w int, stop *atomic.Bool) error {
		clk := t.e.Clock(w)
		for i := uint64(0); !stop.Load(); i++ {
			if t.budget[w] == 0 {
				stop.Store(true) // the epoch is over, for the other worker too
				break
			}
			t0, v0 := time.Now(), clk.Nanos()
			typ, err := t.d.NextTyped(w)
			dur := time.Since(t0)
			if typ == tpcc.TxnNewOrder {
				lats[w].add(dur) // the reported latency is NewOrder's, see README
			}
			t.budget[w]--
			attempted[w]++
			if err != nil {
				failed[w]++
			}
			if rec != nil {
				virts[w].add(time.Duration(clk.Nanos() - v0))
				if i&3 == 0 {
					rec.add("tpcc."+typ.String(), w, uint64(w)<<56|i, t0, dur)
				}
			}
		}
		return nil
	})
	st := runStats{elapsed: elapsed, lat: mergeLat(lats[:]...), virtLat: mergeLat(virts[:]...)}
	st.engine, st.cpu = mark.until(t.e)
	for w := range attempted {
		st.attempted += attempted[w]
		st.failed += failed[w]
	}
	st.ops = st.attempted - st.failed
	return st, err
}

// Key packing of internal/workload/tpcc/keys.go, which the package does not
// export: the check reads district and order rows by key.
func tpccDistrictKey(w, d int) uint64 { return uint64(w)<<8 | uint64(d) }
func tpccOrderKey(w, d, o int) uint64 { return uint64(w)<<40 | uint64(d)<<34 | uint64(o) }

// check crashes and recovers, then demands TPC-C consistency conditions 1
// and 2: W_YTD = sum of D_YTD, and per district the order D_NEXT_O_ID - 1
// exists and D_NEXT_O_ID does not.
func (t *tpccWorkload) check() (checkReport, error) {
	var rep checkReport
	rec, err := crashAndRecover(t.e, &rep)
	if err != nil {
		return rep, err
	}
	wt, dt, ot := rec.Table(tpcc.TWarehouse), rec.Table(tpcc.TDistrict), rec.Table(tpcc.TOrder)
	wbuf := make([]byte, wt.Schema().TupleSize())
	dbuf := make([]byte, dt.Schema().TupleSize())
	obuf := make([]byte, ot.Schema().TupleSize())
	read := func(tbl *core.Table, key uint64, dst []byte) error {
		return rec.RunRO(0, func(tx *core.Txn) error { return tx.Read(tbl, key, dst) })
	}
	for w := 1; w <= t.wcfg.Warehouses; w++ {
		if err := read(wt, uint64(w), wbuf); err != nil {
			return rep, fmt.Errorf("warehouse %d after recovery: %w", w, err)
		}
		var dytd int64
		for d := 1; d <= tpcc.Districts; d++ {
			if err := read(dt, tpccDistrictKey(w, d), dbuf); err != nil {
				return rep, fmt.Errorf("district %d/%d after recovery: %w", w, d, err)
			}
			dytd += dt.Schema().GetInt64(dbuf, tpcc.DYtd)
			next := int(dt.Schema().GetInt64(dbuf, tpcc.DNextOID))
			if err := read(ot, tpccOrderKey(w, d, next-1), obuf); err != nil {
				return rep, fmt.Errorf("district %d/%d: order %d (D_NEXT_O_ID-1) after recovery: %w", w, d, next-1, err)
			}
			if err := read(ot, tpccOrderKey(w, d, next), obuf); !errors.Is(err, core.ErrNotFound) {
				return rep, fmt.Errorf("district %d/%d: order %d (D_NEXT_O_ID) exists after recovery (%v)", w, d, next, err)
			}
			rep.keysChecked += 2
		}
		// Every warehouse starts at ten times the district figure and Payment
		// adds the same amount to both.
		if wytd := wt.Schema().GetInt64(wbuf, tpcc.WYtd); wytd != dytd {
			return rep, fmt.Errorf("warehouse %d after recovery: W_YTD %d, sum of D_YTD %d", w, wytd, dytd)
		}
		rep.keysChecked++
	}
	return rep, nil
}
