package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"falcon/benchmark/gen"
	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/server"
	"falcon/internal/sim"
	"falcon/internal/wal"
	"falcon/internal/workload/ycsb"
)

// The replay ladder feeds generated inputs straight into each layer's public
// functions, one layer at a time on one goroutine, and reports host ns per
// call and allocations per call. It is the same on every workload: it prices
// the layers, the workloads show how much of each they use.

// ladder collects the metrics of the replay steps and one span per step.
type ladder struct {
	opt  options
	rec  *spanRecorder
	vals map[string]float64
	step int
}

// measure runs fn n times and returns host ns and heap allocations per call.
func (l *ladder) measure(name string, n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	l.rec.add("replay."+name, 2*threads, uint64(l.step), t0, d)
	l.step++
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// ns measures and files the time under name.
func (l *ladder) ns(name string, n int, fn func(i int)) {
	l.vals[name], _ = l.measure(name, n, fn)
}

func runLadder(opt options, rec *spanRecorder) (map[string]float64, error) {
	l := &ladder{opt: opt, rec: rec, vals: map[string]float64{}}
	l.pmem()
	l.wal()
	err := errors.Join(l.index(), l.heap(), l.core(), l.sim(), l.server())
	return l.vals, err
}

// n scales an iteration count down for the smoke tests.
func (l *ladder) n(full int) int { return max(full/(l.opt.scale*l.opt.scale), 64) }

// scrambled maps i to a pseudo-random distinct key.
func scrambled(i int) uint64 { return uint64(i)*0x9E3779B97F4A7C15>>20 | 1 }

func (l *ladder) pmem() {
	const missSet, hitSet = 32 << 20, 1 << 20
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20, CacheBytes: bench.CacheBytesFor(threads)})
	var sp pmem.Space = sys.Space
	clk := sim.NewWorkerClock(0)
	fill := bytes.Repeat([]byte{0xA5}, 1<<20)
	for off := uint64(0); off < missSet; off += uint64(len(fill)) {
		sp.BulkWrite(off, fill)
	}
	line := make([]byte, pmem.LineSize)
	// A stride of 67 lines walks all of a 32 MiB set before it revisits a
	// line, so no access finds its line in the 2.5 MiB cache.
	miss := func(i int) uint64 { return uint64(i) * 67 * pmem.LineSize % missSet }
	hit := func(i int) uint64 { return uint64(i) * 67 * pmem.LineSize % hitSet }
	n := l.n(200_000)
	l.ns("pmem.store64_ns", n, func(i int) { sp.Write(clk, miss(i), line) })
	l.ns("pmem.load64_ns", n, func(i int) { sp.Read(clk, miss(i+n), line) })
	for i := 0; i < hitSet/pmem.LineSize; i++ {
		sp.Read(clk, uint64(i)*pmem.LineSize, line)
	}
	l.ns("pmem.load64_hit_ns", n, func(i int) { sp.Read(clk, hit(i), line) })
	l.ns("pmem.store_clwb_ns", n, func(i int) {
		sp.Write(clk, miss(i+2*n), line)
		sp.CLWB(clk, miss(i+2*n), pmem.LineSize)
	})
	l.ns("pmem.sfence_ns", n, func(int) { sp.SFence(clk) })

	// Flush trains: dirty 64 spans of 1 KB, then time only their trains.
	const spanBytes, batch = 1024, 64
	tuple := make([]byte, spanBytes)
	spans := make([]pmem.Span, 1)
	var trainNanos time.Duration
	rounds := max(n/16/batch, 1)
	for r := 0; r < rounds; r++ {
		for j := 0; j < batch; j++ {
			sp.Write(clk, uint64(r*batch+j)*spanBytes%missSet, tuple)
		}
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			spans[0] = pmem.Span{Off: uint64(r*batch+j) * spanBytes % missSet, N: spanBytes}
			sp.CLWBTrain(clk, spans)
		}
		trainNanos += time.Since(t0)
	}
	l.vals["pmem.clwb_train_ns_per_line"] = float64(trainNanos.Nanoseconds()) / float64(rounds*batch*spanBytes/pmem.LineSize)
}

func (l *ladder) wal() {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20, CacheBytes: bench.CacheBytesFor(threads)})
	cfg := wal.Config{Slots: 3, SlotBytes: 4096, OverflowBytes: 64 << 10} // the Falcon preset's window
	clk := sim.NewWorkerClock(0)
	payload := make([]byte, 1000)
	n := l.n(100_000)

	win := wal.NewWindow(sys.Space, 1<<20, cfg)
	l.vals["wal.txn_ns"], l.vals["wal.txn_allocs"] = l.measure("wal.txn", n, func(i int) {
		tl := win.Begin(clk, uint64(i+1))
		tl.AppendUpdate(clk, 0, uint64(i), uint64(i), 8, payload)
		tl.Commit(clk)
	})

	// The group-commit path: publish into a durability epoch, enlist the
	// tuple's flush span, seal as the lazy leader.
	const dataBase = 8 << 20
	gwin := wal.NewWindow(sys.Space, 2<<20, cfg)
	gwin.SetBoard(wal.NewEpochBoard(sys.Space, 3<<20, 0))
	spans := make([]pmem.Span, 1)
	l.ns("wal.txn_gc_ns", n, func(i int) {
		gwin.GroupWait(clk)
		tl := gwin.Begin(clk, uint64(i+1))
		tl.AppendUpdate(clk, 0, uint64(i), uint64(i), 8, payload)
		epoch := tl.Publish(clk)
		spans[0] = pmem.Span{Off: dataBase + uint64(i%4096)*1024, N: len(payload)}
		tl.EnlistData(clk, epoch, spans)
		gwin.SealExpired(clk)
	})
}

func (l *ladder) index() error {
	n := l.n(100_000)
	capacity := uint64(2 * n)
	sys := pmem.NewSystem(pmem.Config{
		DeviceBytes: index.HashBytes(capacity) + index.BTreeBytes(capacity) + 2<<20,
		CacheBytes:  bench.CacheBytesFor(threads),
	})
	clk := sim.NewWorkerClock(0)
	hash, err := index.NewHash(sys.Space, 1<<20, capacity)
	if err != nil {
		return fmt.Errorf("replay hash index: %w", err)
	}
	tree, err := index.NewBTree(sys.Space, 1<<20+(index.HashBytes(capacity)+63)&^63, capacity)
	if err != nil {
		return fmt.Errorf("replay btree index: %w", err)
	}
	var failed error
	for _, c := range []struct {
		name string
		idx  index.Index
	}{{"hash", hash}, {"btree", tree}} {
		l.ns("index."+c.name+"_insert_ns", n, func(i int) {
			if err := c.idx.Insert(clk, scrambled(i), uint64(i)); err != nil {
				failed = fmt.Errorf("replay %s insert: %w", c.name, err)
			}
		})
		l.ns("index."+c.name+"_get_ns", n, func(i int) {
			if v, ok := c.idx.Get(clk, scrambled(n-1-i)); !ok || v != uint64(n-1-i) {
				failed = fmt.Errorf("replay %s get: key %d gave %d, %v", c.name, n-1-i, v, ok)
			}
		})
	}
	const scanLen = 20
	scans := max(n/scanLen, 1)
	visited := 0
	nsPerScan, _ := l.measure("index.btree_scan", scans, func(i int) {
		left := scanLen
		_ = tree.Scan(clk, scrambled(i), func(uint64, uint64) bool {
			visited++
			left--
			return left > 0
		})
	})
	l.vals["index.btree_scan_ns_per_key"] = nsPerScan * float64(scans) / float64(max(visited, 1))
	return failed
}

func (l *ladder) heap() error {
	n := l.n(20_000)
	cfg := heap.Config{SlotSize: 1008, NSlots: uint64(2*n + 1024), NThreads: threads}
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: heap.BytesNeeded(cfg) + 2<<20, CacheBytes: bench.CacheBytesFor(threads)})
	h, err := heap.New(sys.Space, 1<<20, cfg)
	if err != nil {
		return fmt.Errorf("replay heap: %w", err)
	}
	clk := sim.NewWorkerClock(0)
	slots := make([]uint64, n)
	var failed error
	l.ns("heap.alloc_ns", n, func(i int) {
		if slots[i], err = h.Alloc(clk, 0, 0); err != nil {
			failed = fmt.Errorf("replay heap alloc: %w", err)
		}
	})
	tuple := make([]byte, cfg.SlotSize)
	l.ns("heap.write_payload_ns", n, func(i int) { h.WritePayload(clk, slots[i], tuple) })
	l.ns("heap.read_payload_ns", n, func(i int) { h.ReadPayload(clk, slots[n-1-i], tuple) })
	return failed
}

// presetConfig maps a ladder preset name to its engine configuration.
func presetConfig(name string) core.Config {
	switch name {
	case "falcon_gc":
		cfg := core.FalconConfig()
		cfg.GroupCommit = true
		return cfg
	case "inp":
		return core.InpConfig()
	case "outp":
		return core.OutpConfig()
	case "zens":
		return core.ZenSConfig()
	}
	return core.FalconConfig()
}

// core runs the generated YCSB-A stream on each preset with one worker: host
// ns per committed transaction, and the virtual throughput that must keep
// Falcon ahead of the baselines.
func (l *ladder) core() error {
	records := uint64(10_000 / l.opt.scale)
	wcfg := ycsb.Config{Records: records, Workload: ycsb.A, Distribution: ycsb.Zipfian}
	n := l.n(20_000)
	for _, preset := range corePresets {
		cfg := presetConfig(preset)
		cfg.Threads = 1
		cfg.DRAMBytes = 64 << 20 // ZenS's DRAM index of 10 000 keys needs no 512 MiB space, which takes 0.3 s to set up
		e, err := engineFor(cfg, ycsb.TableSpecs(wcfg))
		if err == nil {
			err = ycsb.Load(e, wcfg)
		}
		if err != nil {
			return fmt.Errorf("replay core %s: %w", preset, err)
		}
		tbl := e.Table(ycsb.TableName)
		off := tbl.Schema().Offset(1)
		buf := make([]byte, tbl.Schema().TupleSize())
		stream := gen.NewYCSBA(l.opt.seed, 0, records)
		var failed error
		var key uint64 // closures made once, so that the allocations counted are the engine's
		update := func(tx *core.Txn) error { return tx.Update(tbl, key, off, buf[off:]) }
		read := func(tx *core.Txn) error { return tx.Read(tbl, key, buf) }
		txn := func(int) {
			op := stream.Next()
			key = op.Key
			var err error
			if op.Write {
				err = e.Run(0, update)
			} else {
				err = e.RunRO(0, read)
			}
			if err != nil {
				failed = fmt.Errorf("replay core %s: %w", preset, err)
			}
		}
		for i := 0; i < n/10; i++ {
			txn(i)
		}
		mark := markSection(e)
		ns, allocs := l.measure("core.txn."+preset, n, txn)
		if failed != nil {
			return failed
		}
		win, _ := mark.until(e)
		l.vals["core.txn_ns."+preset] = ns
		if preset == "falcon" {
			l.vals["core.txn_allocs.falcon"] = allocs
		}
		if preset != "falcon_gc" {
			l.vals["core.virt_mtxn_s."+preset] = float64(win.snap.Commits) / float64(win.clockNanos) * 1e3
		}
	}
	return nil
}

// sim prices the deterministic worker-parallel path: the same fixed YCSB cell
// under the round-barrier scheduler and free-running, and it demands that
// two scheduled runs agree byte for byte.
func (l *ladder) sim() error {
	wcfg := ycsb.Config{Records: uint64(10_000 / l.opt.scale), Workload: ycsb.A, Distribution: ycsb.Zipfian}
	cell := func(par bool) (time.Duration, []byte, error) {
		e, d, err := bench.NewYCSB(falconConfig(), wcfg)
		if err != nil {
			return 0, nil, err
		}
		var res *bench.Result
		ns, _ := l.measure(fmt.Sprintf("sim.cell par=%v", par), 1, func(int) {
			res, err = bench.Run(e, "YCSB-A", bench.Options{
				Workers: threads, TxnsPerWorker: l.n(5_000), WarmupPerWorker: l.n(500), ParWorkers: par,
			}, func(w int) (int, error) { return 0, d.Next(w) })
		})
		if err != nil {
			return 0, nil, err
		}
		out, err := json.Marshal(res)
		return time.Duration(ns), out, err
	}
	free, _, err := cell(false)
	if err != nil {
		return fmt.Errorf("replay sim free-running: %w", err)
	}
	par1, out1, err := cell(true)
	if err != nil {
		return fmt.Errorf("replay sim scheduled: %w", err)
	}
	par2, out2, err := cell(true)
	if err != nil {
		return fmt.Errorf("replay sim scheduled: %w", err)
	}
	if !bytes.Equal(out1, out2) {
		return errors.New("replay sim: two ParWorkers runs of one cell differ")
	}
	l.vals["sim.group_host_ratio"] = float64(min(par1, par2)) / float64(free)
	return nil
}

// server replays generated request bodies through ParseRequest, Apply and
// the response encoding one by one, and sends the same bodies to a handler
// that does nothing, which prices net/http and the loopback alone.
func (l *ladder) server() error {
	records := uint64(10_000 / l.opt.scale)
	n := l.n(20_000)
	specs := server.WithIdemTable([]core.TableSpec{{
		Name: serveTable, Schema: server.ServeSchema(0), Capacity: 2 * records, KeyCol: 0, IndexKind: index.Hash,
	}}, uint64(4*n))
	e, err := falconEngine(specs)
	if err == nil {
		err = preloadKV(e, records)
	}
	if err != nil {
		return fmt.Errorf("replay server: %w", err)
	}
	rw, ro := gen.NewServe(l.opt.seed, 0, records, 50), gen.NewServe(l.opt.seed, 0, records, 0)
	bodies, reads := make([][]byte, n), make([][]byte, n)
	for i := range bodies {
		bodies[i] = gen.AppendBody(nil, serveTable, rw.Next())
		reads[i] = gen.AppendBody(nil, serveTable, ro.Next())
	}
	reqs, roReqs := make([]*server.TxnRequest, n), make([]*server.TxnRequest, n)
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = fmt.Errorf("replay server: %w", err)
		}
	}
	l.ns("server.parse_ns", n, func(i int) {
		reqs[i], err = server.ParseRequest(bodies[i])
		note(err)
	})
	for i := range roReqs {
		roReqs[i], err = server.ParseRequest(reads[i])
		note(err)
	}
	if failed != nil {
		return failed
	}
	var resp *server.TxnResponse
	l.vals["server.apply_ns"], l.vals["server.apply_allocs"] = l.measure("server.apply", n, func(i int) {
		resp, err = server.Apply(e, i%threads, uint64(i+1), reqs[i], nil)
		note(err)
	})
	l.ns("server.apply_replay_ns", n, func(i int) {
		r, err := server.Apply(e, i%threads, uint64(i+1), reqs[i], nil)
		note(err)
		if err == nil && !r.Replayed {
			note(fmt.Errorf("idempotency key %d ran twice", i+1))
		}
	})
	l.ns("server.apply_ro_ns", n, func(i int) {
		_, err := server.ApplyRO(e, i%threads, roReqs[i], nil)
		note(err)
	})
	if failed != nil {
		return failed
	}
	enc := json.NewEncoder(io.Discard)
	l.ns("server.encode_ns", n, func(int) { note(enc.Encode(resp)) })
	snaps := max(n/10, 16)
	snapNS, _ := l.measure("obs.snapshot", snaps, func(int) { _ = e.ObsSnapshot() })
	l.vals["obs.snapshot_us"] = snapNS / 1e3

	rtt, err := nullRoundTrips(bodies[:max(n/4, 16)])
	l.vals["http.null_rtt_us"] = rtt
	note(err)
	return failed
}

// nullRoundTrips posts the bodies over one loopback connection to a handler
// that reads the body and answers with a fixed reply, and returns the median
// round trip in microseconds.
func nullRoundTrips(bodies [][]byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	reply, _ := json.Marshal(server.TxnResponse{Outcome: "ok", Results: []server.OpResult{{Val: 1, Found: true}}, Digest: "0000000000000000"})
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-done
	}()
	c, err := dialClient(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.conn.Close()
	lat := newLatRecorder(len(bodies))
	for i, body := range bodies {
		c.body = body
		t0 := time.Now()
		status, err := c.do("/v1/txn", uint64(i+1))
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("null round trip %d: status %d, %v", i, status, err)
		}
		lat.add(time.Since(t0))
	}
	return mergeLat(lat).quantileUS(0.5), nil
}
