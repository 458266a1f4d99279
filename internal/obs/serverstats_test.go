package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestEndpointStatsAddSub(t *testing.T) {
	var h1, h2 Histogram
	h1.Observe(100)
	h1.Observe(200)
	h2.Observe(400)

	a := EndpointStats{Requests: 10, OK: 8, Errors: 1, ShedQueue: 1, Latency: h1}
	b := EndpointStats{Requests: 4, OK: 3, ShedDeadline: 1, Replayed: 2, Latency: h2}
	sum := a
	sum.Add(b)
	if sum.Requests != 14 || sum.OK != 11 || sum.Errors != 1 || sum.Replayed != 2 {
		t.Fatalf("Add: %+v", sum)
	}
	if sum.Shed() != 2 {
		t.Fatalf("Shed() = %d, want 2", sum.Shed())
	}
	if sum.Latency.Count != 3 || sum.Latency.Sum != 700 || sum.Latency.Min != 100 || sum.Latency.Max != 400 {
		t.Fatalf("merged latency: %+v", sum.Latency)
	}

	diff := sum.Sub(a)
	if diff.Requests != 4 || diff.OK != 3 || diff.ShedDeadline != 1 || diff.Replayed != 2 {
		t.Fatalf("Sub: %+v", diff)
	}
}

func TestServerStatsSubNilSafe(t *testing.T) {
	var nilStats *ServerStats
	if nilStats.Sub(nil) != nil {
		t.Fatal("nil.Sub(nil) != nil")
	}
	s := &ServerStats{Endpoints: map[string]EndpointStats{"/v1/txn": {Requests: 5}}}
	if got := s.Sub(nil); got != s {
		t.Fatal("s.Sub(nil) should pass s through")
	}
	base := &ServerStats{Endpoints: map[string]EndpointStats{"/v1/txn": {Requests: 2}}}
	diff := s.Sub(base)
	if diff.Endpoints["/v1/txn"].Requests != 3 {
		t.Fatalf("diff = %+v", diff.Endpoints["/v1/txn"])
	}
}

func TestSnapshotServerRendering(t *testing.T) {
	var s Snapshot
	s.Server = &ServerStats{
		Endpoints: map[string]EndpointStats{
			"/v1/txn": {Requests: 9, OK: 7, ShedQueue: 2},
		},
		QueueDepth: 1, QueueCap: 8, Workers: 2,
	}
	txt := s.Text()
	if !strings.Contains(txt, "server") || !strings.Contains(txt, "/v1/txn") {
		t.Fatalf("Text missing server block:\n%s", txt)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["Server"]; !ok {
		t.Fatal("JSON missing Server key")
	}

	// Snapshot.Sub must carry the server block through nil-safely.
	diff := s.Sub(Snapshot{})
	if diff.Server == nil || diff.Server.Endpoints["/v1/txn"].Requests != 9 {
		t.Fatalf("Sub dropped server stats: %+v", diff.Server)
	}
}

func TestWritePrometheusServerFamilies(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, promTestSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`falcon_server_requests_total{endpoint="/v1/txn"} 500`,
		`falcon_server_shed_total{endpoint="/v1/txn",reason="queue"} 30`,
		`falcon_server_shed_total{endpoint="/v1/txn",reason="deadline"} 10`,
		`falcon_server_replayed_total{endpoint="/v1/txn"} 12`,
		`falcon_server_latency_nanos_count{endpoint="/v1/txn"} 5`,
		"falcon_server_queue_depth 7",
		"falcon_server_draining 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
