package obs

import (
	"fmt"
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

const shedFamily, shedHelp = "falcon_server_shed_total", "Admission rejections by cause."

var endpointMetrics = []metric[EndpointStats]{
	row(counter, "falcon_server_requests_total", "Requests that reached the endpoint (accepted or shed).", func(e *EndpointStats) *uint64 { return &e.Requests }),
	row(counter, "falcon_server_ok_total", "Requests answered successfully.", func(e *EndpointStats) *uint64 { return &e.OK }),
	row(counter, "falcon_server_errors_total", "Requests failed with an engine or protocol error.", func(e *EndpointStats) *uint64 { return &e.Errors }),
	row(counter, shedFamily, shedHelp, func(e *EndpointStats) *uint64 { return &e.ShedQueue }).with("reason", "queue"),
	row(counter, shedFamily, shedHelp, func(e *EndpointStats) *uint64 { return &e.ShedDeadline }).with("reason", "deadline"),
	row(counter, shedFamily, shedHelp, func(e *EndpointStats) *uint64 { return &e.ShedDraining }).with("reason", "draining"),
	row(counter, "falcon_server_expired_total", "Admitted requests whose deadline passed before completion.", func(e *EndpointStats) *uint64 { return &e.Expired }),
	row(counter, "falcon_server_replayed_total", "Retries answered from the idempotency table.", func(e *EndpointStats) *uint64 { return &e.Replayed }),
	hist("falcon_server_latency_nanos", "Accepted-request service time in host nanoseconds.", func(e *EndpointStats) *HistogramDump { return &e.Latency }),
}

// Add sums o into e; the latency histograms merge bucket-wise.
func (e *EndpointStats) Add(o EndpointStats) { addRows(endpointMetrics, e, &o) }

// Sub returns the counter-wise difference e - o; the latency dump passes
// through from e (point-in-time export, like the epoch histograms).
func (e EndpointStats) Sub(o EndpointStats) EndpointStats { return subRows(endpointMetrics, e, o) }

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

// serverMetrics are the admission gauges; Draining, a bool, renders beside
// them.
var serverMetrics = []metric[ServerStats]{
	row(lastGauge, "falcon_server_queue_depth", "Admission queue occupancy.", func(s *ServerStats) *uint64 { return &s.QueueDepth }),
	row(lastGauge, "falcon_server_queue_cap", "Admission queue bound.", func(s *ServerStats) *uint64 { return &s.QueueCap }),
	row(lastGauge, "falcon_server_workers", "Engine-worker slots requests run on.", func(s *ServerStats) *uint64 { return &s.Workers }),
	row(lastGauge, "falcon_server_est_service_nanos", "EWMA service-time estimate driving deadline-aware rejection, in host nanoseconds.", func(s *ServerStats) *uint64 { return &s.EstServiceNanos }),
}

// Sub returns the endpoint-wise counter difference s - o; nil-safe on both
// sides (nil means "serving layer absent from this snapshot"), gauges pass
// through from s.
func (s *ServerStats) Sub(o *ServerStats) *ServerStats {
	if s == nil || o == nil {
		return s
	}
	out := subRows(serverMetrics, *s, *o)
	out.Endpoints = subEach(endpointMetrics, s.Endpoints, o.Endpoints)
	return &out
}

// Text renders the server block for Snapshot.Text.
func (s *ServerStats) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "server    workers %d  queue %d/%d  est-service %d ns  draining %v\n",
		s.Workers, s.QueueDepth, s.QueueCap, s.EstServiceNanos, s.Draining)
	for _, name := range sortedKeys(s.Endpoints) {
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
