package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/server"
)

// A connection holds a goroutine for as long as it is open: one that never
// finishes its headers, or sits idle between requests, gets this long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// runServe exposes one Falcon engine over HTTP: an admission-controlled
// request path (a bounded set of engine-worker slots, deadline-aware
// shedding) with exactly-once retry semantics backed by the engine-resident
// idempotency table. SIGTERM/SIGINT triggers a graceful drain: admission
// stops, in-flight requests finish, and the group-commit epoch is sealed
// before exit.
//
// Endpoints: POST /v1/txn (Idempotency-Key header required, optional
// X-Deadline-Ms), POST /v1/read (gets only, no key needed), GET /metrics
// (Prometheus exposition), GET /healthz, GET /readyz (503 while draining).
func runServe(args []string, stdout, stderr io.Writer) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serve(args, stdout, stderr, sig)
}

// serve is runServe with the shutdown signal as a parameter.
func serve(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := newFlags("serve", stderr)
	addr := fs.String("addr", ":8080", "listen address")
	preset := fs.String("preset", "Falcon", "engine preset by name (case-insensitive; see -list-presets)")
	list := fs.Bool("list-presets", false, "print the available engine presets and exit")
	threads := fs.Int("threads", 4, "engine worker threads")
	workers := fs.Int("workers", 0, "serving pool size (0 = threads; capped at threads)")
	queue := fs.Int("queue", 0, "admission queue depth, queued + running (0 = 4x workers)")
	deadlineMs := fs.Int("deadline-ms", 1000, "default per-request deadline when X-Deadline-Ms is absent")
	floorMs := fs.Int("floor-ms", 0, "pad accepted requests to this service floor, for load experiments (0 = off)")
	records := fs.Uint64("records", 100_000, "rows preloaded into the kv table (key k -> val k)")
	capacity := fs.Uint64("capacity", 0, "kv table capacity (0 = 2x records, min 65536)")
	idemCap := fs.Uint64("idemcap", 1<<20, "idempotency table capacity (one row per committed request key)")
	pad := fs.Int("pad", 0, "extra payload bytes per kv tuple")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "bound on waiting for in-flight requests at shutdown")
	var group bench.GroupFlag
	group.Register(fs)
	if code, done := parse(fs, args); done {
		return code
	}

	// The selectable engine configurations (paper Figures 7-11), deduplicated
	// by name.
	presets := map[string]core.Config{}
	var names []string
	for _, c := range append(bench.EngineConfigs(), bench.AblationConfigs()...) {
		if _, seen := presets[strings.ToLower(c.Name)]; !seen {
			presets[strings.ToLower(c.Name)] = c
			names = append(names, c.Name)
		}
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(names, "\n"))
		return 0
	}
	ecfg, ok := presets[strings.ToLower(*preset)]
	if !ok {
		return refuse(fs, stderr, fmt.Errorf("unknown -preset %q (have: %s)", *preset, strings.Join(names, ", ")))
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", what, err)
		return 1
	}
	ecfg.Threads = *threads
	ecfg = group.Apply(ecfg)

	if *capacity == 0 {
		*capacity = max(2**records, 1<<16)
	}
	specs := server.WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: server.ServeSchema(*pad), Capacity: *capacity,
		KeyCol: 0, IndexKind: index.Hash,
	}}, *idemCap)
	e, err := bench.NewEngine(ecfg, specs)
	if err != nil {
		return fail("engine", err)
	}
	if err := preload(e, *records); err != nil {
		return fail("preload", err)
	}
	srv, err := server.New(e, server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: time.Duration(*deadlineMs) * time.Millisecond,
		ServiceFloor:    time.Duration(*floorMs) * time.Millisecond,
	})
	if err != nil {
		return fail("server", err)
	}
	// Listen before announcing, so the banner names the bound address (with
	// -addr :0, the port the kernel picked).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("serve", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "falcon serve: %s on %s (%d engine threads, %d pool workers, queue %d, %d kv rows)\n",
		ecfg.Name, ln.Addr(), ecfg.Threads, srv.Config().Workers, srv.Config().QueueDepth, *records)

	select {
	case err := <-errc:
		return fail("serve", err)
	case s := <-sig:
		fmt.Fprintf(stdout, "falcon serve: %s — draining (new requests shed, in-flight finishing)\n", s)
		drained := srv.Drain(*drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(ctx) // the drain above already waited for the requests
		cancel()
		if !drained {
			fmt.Fprintln(stderr, "falcon serve: drain timed out with requests still in flight")
			return 1
		}
		fmt.Fprintln(stdout, "falcon serve: drained, durability epoch sealed")
		return 0
	}
}

// preload inserts the initial kv rows directly through the engine before the
// server starts — batched, rotating across the engine workers so every
// thread's heap range fills evenly (slots are partitioned per thread).
func preload(e *core.Engine, records uint64) error {
	t := e.Table("kv")
	s := t.Schema()
	threads := e.Config().Threads
	const batch = 256
	for lo := uint64(0); lo < records; lo += batch {
		hi := min(lo+batch, records)
		err := e.Run(int(lo/batch)%threads, func(tx *core.Txn) error {
			buf := make([]byte, s.TupleSize())
			for k := lo; k < hi; k++ {
				s.PutUint64(buf, 0, k)
				s.PutInt64(buf, 1, int64(k))
				if err := tx.Insert(t, k, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("rows [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}
