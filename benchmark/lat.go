package main

import (
	"fmt"
	"sort"
	"time"
)

// latRecorder keeps exact latency samples of one worker in a slice allocated
// before the run; the reported quantiles come from the sorted samples, never
// from log2 buckets.
type latRecorder struct{ ns []int64 }

func newLatRecorder(capacity int) *latRecorder {
	return &latRecorder{ns: make([]int64, 0, capacity)}
}

func (r *latRecorder) add(d time.Duration) { r.ns = append(r.ns, int64(d)) }

// latSummary is the merged, sorted sample set of a run.
type latSummary struct{ sorted []int64 }

// mergeLat merges the per-worker recorders and sorts once.
func mergeLat(recs ...*latRecorder) latSummary {
	n := 0
	for _, r := range recs {
		n += len(r.ns)
	}
	all := make([]int64, 0, n)
	for _, r := range recs {
		all = append(all, r.ns...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return latSummary{all}
}

// poolLat pools the samples of two sections of one run.
func poolLat(a, b latSummary) latSummary {
	if len(a.sorted) == 0 {
		return b
	}
	return mergeLat(&latRecorder{a.sorted}, &latRecorder{b.sorted})
}

func (s latSummary) count() int { return len(s.sorted) }

// quantileUS returns the q-quantile in microseconds (0 with no samples).
func (s latSummary) quantileUS(q float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(s.sorted)))
	if i >= len(s.sorted) {
		i = len(s.sorted) - 1
	}
	return float64(s.sorted[i]) / 1e3
}

// tail is the highest of p90, p99, p99.9, p99.99 that still has at least ten
// samples beyond it.
func (s latSummary) tail() (label string, us float64) {
	label, q := "p50", 0.5
	for _, c := range []struct {
		label string
		q     float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}} {
		if float64(len(s.sorted))*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	return label, s.quantileUS(q)
}

func (s latSummary) String() string {
	label, us := s.tail()
	return fmt.Sprintf("median %.2f us, %s %.2f us, %d samples", s.quantileUS(0.5), label, us, s.count())
}
