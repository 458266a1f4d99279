package obs

import (
	"fmt"
	"sort"
	"strings"
)

// EndpointStats counts one serving endpoint's request outcomes. The serving
// layer owns the live accumulators (atomics, and a lock around the histogram)
// and contributes a copy at snapshot time, so the fields here are plain values.
type EndpointStats struct {
	// Requests counts every request that reached the endpoint, accepted or
	// not; OK and Errors partition the completed ones (Errors are engine or
	// protocol failures, not sheds).
	Requests uint64
	OK       uint64
	Errors   uint64
	// ShedQueue / ShedDeadline / ShedDraining count admission rejections by
	// cause: queue at capacity, deadline unmeetable given the estimated
	// queue wait, and drain in progress. Shed requests never take a slot.
	ShedQueue    uint64
	ShedDeadline uint64
	ShedDraining uint64
	// Expired counts admitted requests whose deadline passed before or
	// during execution (the transaction attempt was canceled).
	Expired uint64
	// Replayed counts requests answered from the idempotency table — a
	// retry whose original attempt had already committed.
	Replayed uint64
	// Retried counts requests that arrived carrying an idempotency key the
	// server had not seen complete (first attempts and true retries both
	// land in Requests; Retried is maintained by clients, so servers leave
	// it zero unless the transport conveys it).
	Retried uint64
	// Latency is the service-time distribution of the endpoint's committed
	// requests in host nanoseconds: from taking an engine-worker slot to the
	// end of the transaction, any service-floor padding included. The wait
	// for the slot and the response write are not in it.
	Latency HistogramDump `json:",omitempty"`
}

// Shed returns the total rejections across causes.
func (e EndpointStats) Shed() uint64 {
	return e.ShedQueue + e.ShedDeadline + e.ShedDraining
}

// Add sums o into e (histograms merge bucket-wise).
func (e *EndpointStats) Add(o EndpointStats) {
	e.Requests += o.Requests
	e.OK += o.OK
	e.Errors += o.Errors
	e.ShedQueue += o.ShedQueue
	e.ShedDeadline += o.ShedDeadline
	e.ShedDraining += o.ShedDraining
	e.Expired += o.Expired
	e.Replayed += o.Replayed
	e.Retried += o.Retried
	e.Latency = e.Latency.Merge(o.Latency)
}

// Sub returns the counter-wise difference e - o; the latency dump passes
// through from e (point-in-time export, like the epoch histograms).
func (e EndpointStats) Sub(o EndpointStats) EndpointStats {
	return EndpointStats{
		Requests:     e.Requests - o.Requests,
		OK:           e.OK - o.OK,
		Errors:       e.Errors - o.Errors,
		ShedQueue:    e.ShedQueue - o.ShedQueue,
		ShedDeadline: e.ShedDeadline - o.ShedDeadline,
		ShedDraining: e.ShedDraining - o.ShedDraining,
		Expired:      e.Expired - o.Expired,
		Replayed:     e.Replayed - o.Replayed,
		Retried:      e.Retried - o.Retried,
		Latency:      e.Latency,
	}
}

// ServerStats is the serving layer's contribution to a Snapshot: per-endpoint
// outcome counters plus the admission controller's gauges.
type ServerStats struct {
	// Endpoints maps endpoint name (e.g. "/v1/txn") to its counters.
	Endpoints map[string]EndpointStats `json:",omitempty"`
	// QueueDepth / QueueCap are the admission queue's occupancy and bound at
	// snapshot time (gauges). Workers is the number of engine-worker slots
	// requests run on.
	QueueDepth uint64
	QueueCap   uint64
	Workers    uint64
	// EstServiceNanos is the admission controller's EWMA service-time
	// estimate in host nanoseconds (gauge; drives deadline-aware rejection).
	EstServiceNanos uint64
	// Draining reports that the server has stopped admitting (gauge).
	Draining bool
}

// Sub returns the endpoint-wise counter difference s - o; nil-safe on both
// sides (nil means "serving layer absent from this snapshot"), gauges pass
// through from s.
func (s *ServerStats) Sub(o *ServerStats) *ServerStats {
	if s == nil || o == nil {
		return s
	}
	out := &ServerStats{
		QueueDepth:      s.QueueDepth,
		QueueCap:        s.QueueCap,
		Workers:         s.Workers,
		EstServiceNanos: s.EstServiceNanos,
		Draining:        s.Draining,
	}
	if s.Endpoints != nil {
		out.Endpoints = make(map[string]EndpointStats, len(s.Endpoints))
		for name, ep := range s.Endpoints {
			out.Endpoints[name] = ep.Sub(o.Endpoints[name])
		}
	}
	return out
}

// Text renders the server block for Snapshot.Text.
func (s *ServerStats) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "server    workers %d  queue %d/%d  est-service %d ns  draining %v\n",
		s.Workers, s.QueueDepth, s.QueueCap, s.EstServiceNanos, s.Draining)
	names := make([]string, 0, len(s.Endpoints))
	for name := range s.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := s.Endpoints[name]
		fmt.Fprintf(&b, "  %-12s req %d  ok %d  err %d  shed %d (queue %d, deadline %d, drain %d)  expired %d  replayed %d\n",
			name, ep.Requests, ep.OK, ep.Errors, ep.Shed(),
			ep.ShedQueue, ep.ShedDeadline, ep.ShedDraining, ep.Expired, ep.Replayed)
		if ep.Latency.Count > 0 {
			fmt.Fprintf(&b, "  %-12s latency mean %d ns  max %d ns  (%d samples)\n",
				"", ep.Latency.Mean(), ep.Latency.Max, ep.Latency.Count)
		}
	}
	return b.String()
}
