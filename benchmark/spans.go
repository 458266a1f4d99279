package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"falcon/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share an id; a span's parent is the enclosing span with the same id
// (request > server.handler), so self time is duration minus the child's.
type span struct {
	name       string
	tid        int
	id         uint64
	start, dur int64 // ns since the recorder's origin
}

// spanRecorder keeps spans in memory until the run ends. It holds at most
// limit spans: callers sample, the cap only bounds the trace file.
type spanRecorder struct {
	origin time.Time
	limit  int
	mu     sync.Mutex
	spans  []span
}

func newSpanRecorder(limit int) *spanRecorder {
	return &spanRecorder{origin: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

func (r *spanRecorder) add(name string, tid int, id uint64, start time.Time, dur time.Duration) {
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, span{name, tid, id, int64(start.Sub(r.origin)), int64(dur)})
	}
	r.mu.Unlock()
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing) and checks the file with the repository's own
// validator. threads names the tracks.
func (r *spanRecorder) writeChromeTrace(path string, threads []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for tid, name := range threads {
		if tid > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, name)
	}
	for _, s := range r.spans {
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}`,
			s.name, s.tid, float64(s.start)/1e3, float64(s.dur)/1e3, s.id)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
