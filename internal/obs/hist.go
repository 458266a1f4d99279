package obs

import (
	"math/bits"
	"sort"
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
// Like a Probe it is single-owner while being written; Merge and the
// quantile queries are for after the workers have stopped.
type Histogram struct {
	counts   [histBuckets]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.counts[bits.Len64(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min and Max return the exact observed extremes (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the exact mean sample (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Quantile returns the q-quantile (q in [0,1]) using the same nearest-rank
// convention as sorting the samples and taking index floor(count*q), with
// linear interpolation inside the chosen bucket. Results are clamped to the
// observed [min, max], so the error is bounded by one bucket width.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	target := uint64(float64(h.count) * q)
	if target >= h.count {
		target = h.count - 1
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
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// HistBucket is one non-empty histogram bucket in an export: the inclusive
// value range [Lo, Hi] and the number of samples that fell in it.
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramDump is the exportable form of a Histogram: summary fields plus
// the non-empty buckets, suitable for JSON serialization and offline
// latency-distribution analysis.
type HistogramDump struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Dump exports the histogram's summary and non-empty buckets.
func (h *Histogram) Dump() HistogramDump {
	d := HistogramDump{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		d.Buckets = append(d.Buckets, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return d
}

// Mean returns the mean sample recorded in the dump (0 when empty).
func (d HistogramDump) Mean() uint64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / d.Count
}

// Merge combines two dumps bucket-wise (buckets share the fixed log2 bounds,
// so same-Lo buckets add). Either side may be empty.
func (d HistogramDump) Merge(o HistogramDump) HistogramDump {
	if o.Count == 0 {
		return d
	}
	if d.Count == 0 {
		return o
	}
	out := HistogramDump{
		Count: d.Count + o.Count,
		Sum:   d.Sum + o.Sum,
		Min:   d.Min,
		Max:   d.Max,
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	byLo := make(map[uint64]HistBucket, len(d.Buckets)+len(o.Buckets))
	for _, b := range d.Buckets {
		byLo[b.Lo] = b
	}
	for _, b := range o.Buckets {
		if prev, ok := byLo[b.Lo]; ok {
			prev.Count += b.Count
			byLo[b.Lo] = prev
		} else {
			byLo[b.Lo] = b
		}
	}
	for _, b := range byLo {
		out.Buckets = append(out.Buckets, b)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Lo < out.Buckets[j].Lo })
	return out
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
