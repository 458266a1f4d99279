package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// histBuckets covers bits.Len64 of any uint64: bucket 0 holds the value 0,
// bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
const histBuckets = 65

// Histogram is a fixed-size log2-bucketed histogram of virtual-time samples.
// It replaces unbounded per-transaction sample slices: memory is constant
// (~0.5 KiB) regardless of sample count, and quantiles are recovered by
// within-bucket linear interpolation, clamped to the observed min/max so a
// single-sample histogram reports that sample exactly.
//
// The summary is exported as fields; the stats structs and the run results
// hold a Histogram by value, and it marshals as the summary plus its
// non-empty buckets (MarshalJSON).
//
// Like a Probe it is single-owner while being written; Merge and the
// quantile queries are for after the workers have stopped.
type Histogram struct {
	// Count and Sum are the number of samples and their sum; Min and Max
	// the exact observed extremes (all 0 when empty).
	Count, Sum, Min, Max uint64
	counts               [histBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[bits.Len64(v)]++
	h.Count++
	h.Sum += v
	if h.Count == 1 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the exact mean sample (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Quantile returns the q-quantile (q in [0,1]) using the same nearest-rank
// convention as sorting the samples and taking index floor(count*q), with
// linear interpolation inside the chosen bucket. Results are clamped to the
// observed [min, max], so the error is bounded by one bucket width.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	target := uint64(float64(h.Count) * q)
	if target >= h.Count {
		target = h.Count - 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if target < cum+c {
			lo, hi := bucketBounds(i)
			// Interpolate at the rank's position within this bucket.
			v := lo + uint64(float64(hi-lo)*float64(target-cum)/float64(c))
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += c
	}
	return h.Max
}

// HistBucket is one non-empty histogram bucket in the JSON form: the
// inclusive value range [Lo, Hi] and the number of samples that fell in it.
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// histJSON is a Histogram's JSON form: the summary and the non-empty buckets
// in ascending order.
type histJSON struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// buckets returns the non-empty buckets in ascending order.
func (h *Histogram) buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c != 0 {
			lo, hi := bucketBounds(i)
			out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return out
}

// MarshalJSON writes the summary and the non-empty buckets. It has a value
// receiver because snapshots are marshaled by value.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histJSON{h.Count, h.Sum, h.Min, h.Max, h.buckets()})
}

// UnmarshalJSON reads what MarshalJSON writes; a bucket must have one of the
// fixed log2 ranges.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var j histJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = Histogram{Count: j.Count, Sum: j.Sum, Min: j.Min, Max: j.Max}
	for _, bk := range j.Buckets {
		i := bits.Len64(bk.Lo)
		if lo, hi := bucketBounds(i); lo != bk.Lo || hi != bk.Hi {
			return fmt.Errorf("obs: histogram bucket [%d, %d] is not a log2 bucket", bk.Lo, bk.Hi)
		}
		h.counts[i] += bk.Count
	}
	return nil
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<i - 1
}
