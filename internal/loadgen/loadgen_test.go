package loadgen

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/server"
)

func newLoadTarget(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	ecfg := core.FalconConfig()
	ecfg.Threads = 4
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
	specs := server.WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: server.ServeSchema(0), Capacity: 1 << 14,
		KeyCol: 0, IndexKind: index.Hash,
	}}, 1<<14)
	e, err := core.New(sys, ecfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	return s, ts.URL
}

// TestReportSchemaRoundTrip is the artifact-format guard: a Report survives a
// JSON round trip unchanged, carries the falcon/loadgen/v1 stamp, and exposes
// exactly the documented Round keys — a rename shows up here before it breaks
// offline consumers diffing -json artifacts.
func TestReportSchemaRoundTrip(t *testing.T) {
	var lat, latOK obs.Histogram
	for _, v := range []uint64{900, 1800, 3600, 7200} {
		lat.Observe(v)
	}
	latOK.Observe(900)
	latOK.Observe(1800)
	in := &Report{
		Schema: bench.LoadgenSchema, Scenario: ScenarioOverload,
		Target: "http://127.0.0.1:0", KneeQPS: 123.5,
		Rounds: []Round{{
			Label: "overload@2x-knee", TargetQPS: 247, Offered: 100, Completed: 90,
			OK: 60, Errors: 30, Sheds: 35, Retries: 20, Replayed: 2,
			AchievedQPS: 59.5, DurationNanos: uint64(time.Second),
			Latency: lat, P50Nanos: lat.Quantile(0.50),
			P95Nanos: lat.Quantile(0.95), P99Nanos: lat.Quantile(0.99),
			AcceptedLatency: latOK, AcceptedP99Nanos: latOK.Quantile(0.99),
		}},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("report did not survive the round trip:\n in: %+v\nout: %+v", *in, out)
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got := string(top["schema"]); got != `"falcon/loadgen/v1"` {
		t.Fatalf("schema stamp = %s, want %q", got, bench.LoadgenSchema)
	}
	var rounds []map[string]json.RawMessage
	if err := json.Unmarshal(top["rounds"], &rounds); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"label", "target_qps", "offered", "completed", "ok", "errors",
		"sheds", "retries", "replayed", "achieved_qps", "duration_nanos",
		"latency", "p50_nanos", "p95_nanos", "p99_nanos",
		"accepted_latency", "accepted_p99_nanos",
	}
	for _, k := range want {
		if _, ok := rounds[0][k]; !ok {
			t.Errorf("round JSON is missing key %q — a rename needs a schema bump", k)
		}
	}
	if len(rounds[0]) != len(want) {
		keys := make([]string, 0, len(rounds[0]))
		for k := range rounds[0] {
			keys = append(keys, k)
		}
		t.Errorf("round JSON has %d keys %v, want the %d documented ones", len(rounds[0]), keys, len(want))
	}
}

// TestRoundJSONBytes pins a Round's JSON byte for byte, both latency
// histograms included: -json artifacts are diffed offline.
func TestRoundJSONBytes(t *testing.T) {
	var lat, latOK obs.Histogram
	for _, v := range []uint64{0, 900, 1800, 3600, 1 << 63} {
		lat.Observe(v)
	}
	latOK.Observe(900)
	r := Round{
		Label: "closed", TargetQPS: 250.5, Offered: 5, Completed: 5, OK: 4, Errors: 1,
		Sheds: 2, Retries: 3, Replayed: 1, AchievedQPS: 199.25, DurationNanos: 20_000_000,
		Latency: lat, P50Nanos: 1800, P95Nanos: 3600, P99Nanos: 3600,
		AcceptedLatency: latOK, AcceptedP99Nanos: 900,
	}
	for _, tc := range []struct {
		r    Round
		want string
	}{
		{r, `{"label":"closed","target_qps":250.5,"offered":5,"completed":5,"ok":4,"errors":1,"sheds":2,"retries":3,"replayed":1,"achieved_qps":199.25,"duration_nanos":20000000,` +
			`"latency":{"count":5,"sum":9223372036854782108,"min":0,"max":9223372036854775808,"buckets":[{"lo":0,"hi":0,"count":1},{"lo":512,"hi":1023,"count":1},{"lo":1024,"hi":2047,"count":1},{"lo":2048,"hi":4095,"count":1},{"lo":9223372036854775808,"hi":18446744073709551615,"count":1}]},` +
			`"p50_nanos":1800,"p95_nanos":3600,"p99_nanos":3600,` +
			`"accepted_latency":{"count":1,"sum":900,"min":900,"max":900,"buckets":[{"lo":512,"hi":1023,"count":1}]},"accepted_p99_nanos":900}`},
		{Round{Label: "empty"}, `{"label":"empty","offered":0,"completed":0,"ok":0,"errors":0,"sheds":0,"retries":0,"replayed":0,"achieved_qps":0,"duration_nanos":0,` +
			`"latency":{"count":0,"sum":0,"min":0,"max":0},"p50_nanos":0,"p95_nanos":0,"p99_nanos":0,"accepted_latency":{"count":0,"sum":0,"min":0,"max":0},"accepted_p99_nanos":0}`},
	} {
		b, err := json.Marshal(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.r.Label, b, tc.want)
		}
	}
}

// TestClosedScenarioInProcess smoke-tests the closed-loop scenario end to end
// against an in-process server: every request terminates OK and the artifact
// is well-formed.
func TestClosedScenarioInProcess(t *testing.T) {
	_, url := newLoadTarget(t, server.Config{Workers: 2})
	cfg := Config{BaseURL: url, Keys: 128, Clients: 4, Requests: 40, Seed: 7}
	rep, err := RunScenario(ScenarioClosed, cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != bench.LoadgenSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Rounds) != 1 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	r := rep.Rounds[0]
	if r.OK != r.Offered || r.Errors != 0 {
		t.Fatalf("unloaded closed loop: ok %d errors %d of %d offered", r.OK, r.Errors, r.Offered)
	}
	if r.AcceptedLatency.Count != r.OK {
		t.Fatalf("accepted latency count %d != ok %d", r.AcceptedLatency.Count, r.OK)
	}
	if r.P99Nanos == 0 || r.AcceptedP99Nanos == 0 {
		t.Fatal("latency quantiles missing")
	}
}

// TestRetryStormConverges: a burst of aggressively-retrying clients against a
// tiny service window must drain — jittered backoff spreads the retries out
// so terminal success stays high instead of the storm compounding.
func TestRetryStormConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load test")
	}
	_, url := newLoadTarget(t, server.Config{
		Workers: 1, QueueDepth: 2, ServiceFloor: 2 * time.Millisecond,
	})
	cfg := Config{BaseURL: url, Keys: 64, Clients: 16, Requests: 96,
		DeadlineMs: 2000, Seed: 11, IdemBase: 1 << 41}
	rep, err := RunScenario(ScenarioRetryStorm, cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Rounds[0]
	if r.Sheds == 0 {
		t.Fatal("storm produced no sheds — the window was not small enough to exercise retries")
	}
	if r.OK < r.Offered*9/10 {
		t.Fatalf("storm did not converge: %d/%d ok (%d sheds, %d retries)",
			r.OK, r.Offered, r.Sheds, r.Retries)
	}
}

// TestOverloadShedsWithoutQueueCollapse is the graceful-degradation
// acceptance check: drive the server at 2x its measured saturation QPS and
// require that (a) it sheds explicitly rather than queuing into collapse and
// (b) the requests it does accept keep a p99 within 3x the unloaded p99.
//
// ServiceFloor pins the operating point: every accepted request takes >= 20ms
// of service, so saturation is Workers/floor = 100 QPS and the unloaded p99
// is at least the floor, independent of host speed.
func TestOverloadShedsWithoutQueueCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load test")
	}
	const floor = 20 * time.Millisecond
	_, url := newLoadTarget(t, server.Config{Workers: 2, ServiceFloor: floor})

	base := Config{BaseURL: url, Keys: 128, Seed: 3}
	if err := Seed(base); err != nil {
		t.Fatal(err)
	}

	// Unloaded baseline: one client, back-to-back, no retries.
	un := base
	un.Clients = 1
	un.Requests = 30
	un.MaxAttempts = 1
	unloaded := Closed(un, "unloaded")
	if unloaded.OK != unloaded.Offered {
		t.Fatalf("unloaded round had failures: %+v", unloaded)
	}
	unloadedP99 := unloaded.AcceptedP99Nanos
	if unloadedP99 < uint64(floor) {
		t.Fatalf("unloaded p99 %d below the %v service floor — floor not applied", unloadedP99, floor)
	}

	// Measure the saturation knee with an open-loop QPS ladder.
	kneeCfg := base
	kneeCfg.Clients = 32
	kneeCfg.MaxAttempts = 1
	kneeCfg.DeadlineMs = 400
	kneeCfg.IdemBase = 1 << 41
	knee, _ := FindKnee(kneeCfg, 30, 400*time.Millisecond)
	if knee <= 0 {
		t.Fatalf("knee = %v", knee)
	}

	// Overload at 2x the knee. The deadline is set to (floor + estWait
	// headroom) so the admission controller sheds deadline-unmeetable work at
	// the door; what it accepts completes near the floor.
	over := kneeCfg
	over.IdemBase = 1 << 42
	over.DeadlineMs = int(2 * floor / time.Millisecond)
	overload := Open(over, 2*knee, 600*time.Millisecond, "overload@2x-knee")

	if overload.Sheds == 0 {
		t.Fatalf("2x-knee overload produced no sheds: %+v", overload)
	}
	if overload.OK == 0 {
		t.Fatalf("2x-knee overload accepted nothing: %+v", overload)
	}
	if limit := 3 * unloadedP99; overload.AcceptedP99Nanos > limit {
		t.Fatalf("accepted p99 %v exceeds 3x unloaded p99 %v under overload (queue collapse)",
			time.Duration(overload.AcceptedP99Nanos), time.Duration(unloadedP99))
	}
	t.Logf("knee %.0f qps; overload: offered %d ok %d sheds %d; unloaded p99 %v accepted p99 %v",
		knee, overload.Offered, overload.OK, overload.Sheds,
		time.Duration(unloadedP99), time.Duration(overload.AcceptedP99Nanos))
}
