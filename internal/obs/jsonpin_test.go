package obs

import (
	"encoding/json"
	"testing"
)

// pinHistogram returns a histogram of vs.
func pinHistogram(vs ...uint64) Histogram {
	var h Histogram
	for _, v := range vs {
		h.Observe(v)
	}
	return h
}

// TestHistogramJSONBytes pins the histogram's JSON wire form byte for byte:
// empty, one sample, and samples spanning bucket 0 and the top bucket
// (values >= 2^63). Sweep -json files, loadgen reports and server snapshots
// all carry it, and the structs that hold one are marshaled by value.
func TestHistogramJSONBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    Histogram
		want string
	}{
		{"empty", pinHistogram(), `{"count":0,"sum":0,"min":0,"max":0}`},
		{"one", pinHistogram(1234), `{"count":1,"sum":1234,"min":1234,"max":1234,"buckets":[{"lo":1024,"hi":2047,"count":1}]}`},
		{"multi", pinHistogram(0, 3, 3, 700, 1<<63+5),
			`{"count":5,"sum":9223372036854776519,"min":0,"max":9223372036854775813,"buckets":[{"lo":0,"hi":0,"count":1},{"lo":2,"hi":3,"count":2},{"lo":512,"hi":1023,"count":1},{"lo":9223372036854775808,"hi":18446744073709551615,"count":1}]}`},
	} {
		b, err := json.Marshal(tc.h)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, b, tc.want)
		}
		var back Histogram
		if err := json.Unmarshal(b, &back); err != nil || back != tc.h {
			t.Errorf("%s: round trip gave %+v (%v)", tc.name, back, err)
		}
	}
	var h Histogram
	if err := json.Unmarshal([]byte(`{"count":1,"buckets":[{"lo":4,"hi":8,"count":1}]}`), &h); err == nil {
		t.Error("a bucket off the log2 grid was accepted")
	}
}

// TestStatsJSONBytes pins the JSON of the stats structs that hold a
// histogram, marshaled by value as a snapshot marshals them.
func TestStatsJSONBytes(t *testing.T) {
	ep := EndpointStats{Requests: 9, OK: 6, Errors: 1, ShedQueue: 1, ShedDeadline: 1, ShedDraining: 0,
		Expired: 1, Replayed: 2, Latency: pinHistogram(40_000, 90_000)}
	epoch := EpochStats{Sealed: 3, Pending: 1, Records: 12, TrainSpans: 4, ForcedSeals: 1,
		EpochSize: pinHistogram(2, 4, 6), DurableLag: pinHistogram(0, 1500)}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"EndpointStats", ep, `{"Requests":9,"OK":6,"Errors":1,"ShedQueue":1,"ShedDeadline":1,"ShedDraining":0,"Expired":1,"Replayed":2,"Latency":{"count":2,"sum":130000,"min":40000,"max":90000,"buckets":[{"lo":32768,"hi":65535,"count":1},{"lo":65536,"hi":131071,"count":1}]}}`},
		{"EndpointStats empty", EndpointStats{}, `{"Requests":0,"OK":0,"Errors":0,"ShedQueue":0,"ShedDeadline":0,"ShedDraining":0,"Expired":0,"Replayed":0,"Latency":{"count":0,"sum":0,"min":0,"max":0}}`},
		{"EpochStats", epoch, `{"Sealed":3,"Pending":1,"Records":12,"TrainSpans":4,"ForcedSeals":1,"EpochSize":{"count":3,"sum":12,"min":2,"max":6,"buckets":[{"lo":2,"hi":3,"count":1},{"lo":4,"hi":7,"count":2}]},"DurableLag":{"count":2,"sum":1500,"min":0,"max":1500,"buckets":[{"lo":0,"hi":0,"count":1},{"lo":1024,"hi":2047,"count":1}]}}`},
	} {
		b, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, b, tc.want)
		}
	}
}
