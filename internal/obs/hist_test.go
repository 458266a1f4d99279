package obs

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(12345)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Errorf("q=%v: got %d, want exact 12345 (min/max clamp)", q, got)
		}
	}
	if h.Mean() != 12345 {
		t.Errorf("mean = %d, want 12345", h.Mean())
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.95) != 0 || h.Mean() != 0 || h.Count != 2 {
		t.Error("zero samples must stay zero")
	}
}

// TestHistogramQuantileWithinBucket checks the documented error bound: the
// histogram quantile lands within one log2 bucket of the exact nearest-rank
// quantile.
func TestHistogramQuantileWithinBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]uint64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Skewed latencies across several decades, like commit latencies.
		v := uint64(rng.ExpFloat64() * 50000)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := samples[int(float64(len(samples))*q)]
		got := h.Quantile(q)
		// One-bucket bound: got and exact share a bucket or are within 2x.
		if got > 2*exact+1 || exact > 2*got+1 {
			t.Errorf("q=%v: got %d, exact %d — outside one-bucket bound", q, got, exact)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(1); i <= 100; i++ {
		a.Observe(i)
	}
	for i := uint64(101); i <= 200; i++ {
		b.Observe(i)
	}
	a.Merge(&b)
	if a.Count != 200 || a.Min != 1 || a.Max != 200 {
		t.Fatalf("merge: count=%d min=%d max=%d", a.Count, a.Min, a.Max)
	}
	if got := a.Quantile(0.5); got < 64 || got > 200 {
		t.Errorf("median after merge = %d, want within a bucket of ~100", got)
	}
	var empty Histogram
	empty.Merge(&a)
	if empty.Count != 200 || empty.Min != 1 {
		t.Error("merge into empty must copy min/max")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Reset()
	if h.Count != 0 || h.Quantile(1) != 0 {
		t.Error("reset must clear everything")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 5, 300} {
		h.Observe(v)
	}
	if h.Count != 5 || h.Sum != 307 || h.Min != 0 || h.Max != 300 {
		t.Fatalf("summary = %+v", h)
	}
	// 0 → bucket [0,0]; 1,1 → [1,1]; 5 → [4,7]; 300 → [256,511].
	want := []HistBucket{{0, 0, 1}, {1, 1, 2}, {4, 7, 1}, {256, 511, 1}}
	got := h.buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	var total uint64
	for i, b := range got {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
		total += b.Count
	}
	if total != h.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, h.Count)
	}

	if empty := new(Histogram).buckets(); empty != nil {
		t.Errorf("empty histogram buckets = %+v", empty)
	}
}
