package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear latency histogram in the HDR
// style: values (nanoseconds, but any non-negative int64 works) land in
// buckets whose width grows with magnitude, so one fixed 15 KB array
// covers everything from 1 ns to ~292 years with a bounded relative
// error. Each octave [2^e, 2^(e+1)) splits into 32 linear sub-buckets,
// so a reconstructed quantile is off by at most half a sub-bucket —
// under 1.6 % of the value — while Record stays one atomic increment.
//
// Record is wait-free (one bucket Add, one sum Add, a CAS loop only on
// a new maximum) and allocation-free, so it can sit on the serving hot
// path: every serving-layer executor owns its stage histograms as plain
// fields and records into them on every request. BenchmarkHistogramRecord
// (-suite load) measures the record cost.
//
// Snapshots are plain counted copies: mergeable (associatively — see
// TestHistogramMergeAssociativity), comparable, and safe to take while
// writers are recording. A snapshot taken under concurrent writes may
// tear count against sum by a few in-flight samples; quantiles only
// need bucket ranks, so they stay correct for every sample the copy
// saw.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Bucket geometry: 32 exact buckets for values 0..31, then 32 linear
// sub-buckets per octave for the 58 octaves that cover the rest of the
// non-negative int64 range.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	histOctaves = 63 - histSubBits // leading-bit positions 5..62
	histBuckets = histSub + histOctaves*histSub
)

// bucketIndex maps a value to its bucket. Negative values (a clock
// stepping backwards mid-sample) clamp to zero rather than corrupting
// the array.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1 // 5..62 for positive int64
	sub := (u >> (e - histSubBits)) & (histSub - 1)
	return int(e-histSubBits)*histSub + int(sub) + histSub
}

// bucketLow is the smallest value that lands in bucket i.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := uint(i-histSub)/histSub + histSubBits
	sub := uint64(uint(i-histSub) % histSub)
	return int64(uint64(1)<<e | sub<<(e-histSubBits))
}

// bucketMid is the representative value reported for bucket i: its
// midpoint, which halves the worst-case reconstruction error versus
// either edge.
func bucketMid(i int) int64 {
	if i < histSub {
		return int64(i) // exact range: the bucket is the value
	}
	low := bucketLow(i)
	width := int64(1) << (uint(i-histSub) / histSub) // 2^(e-histSubBits)
	return low + width/2
}

// Record adds one sample. Safe for any number of concurrent callers;
// never allocates. A nil receiver is a no-op so optional instrumentation
// can call through unconditionally.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordSince records the elapsed nanoseconds since start.
func (h *Histogram) RecordSince(start time.Time) {
	if h == nil {
		return
	}
	h.Record(time.Since(start).Nanoseconds())
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			s.Counts[i] = n
			s.N += n
		}
	}
	return s
}

// HistogramSnapshot is a point-in-time copy: quantiles are read from
// snapshots, and snapshots from different histograms (other workers,
// other stages, other nodes) merge into one population.
type HistogramSnapshot struct {
	Counts [histBuckets]int64
	N      int64 // total samples
	Sum    int64
	Max    int64
}

// Count returns the number of recorded samples.
func (s *HistogramSnapshot) Count() int64 { return s.N }

// Mean returns the average sample, or 0 for an empty snapshot.
func (s *HistogramSnapshot) Mean() int64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / s.N
}

// Min returns (the representative value of) the smallest recorded
// sample, 0 when empty. Exact for values below 32, within the bucket
// error bound above.
func (s *HistogramSnapshot) Min() int64 {
	for i, n := range s.Counts {
		if n != 0 {
			return bucketMid(i)
		}
	}
	return 0
}

// Quantile returns the value at quantile q in [0, 1]: the representative
// value of the bucket holding the sample of rank ceil(q·N). q ≥ 1
// returns the exact recorded maximum (the HDR convention — the worst
// sample is the one number that must not be smoothed); q ≤ 0 returns
// Min. The result is clamped to Max so bucket midpoints never report a
// latency worse than any sample actually seen.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	if q <= 0 {
		return s.Min()
	}
	rank := int64(q*float64(s.N) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.N {
		rank = s.N
	}
	var cum int64
	for i, n := range s.Counts {
		cum += n
		if cum >= rank {
			v := bucketMid(i)
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Merge folds other into s. Merging is commutative and associative
// (bucket-wise addition, sum addition, max of maxes), so per-worker or
// per-node snapshots combine into one population in any order.
func (s *HistogramSnapshot) Merge(other *HistogramSnapshot) {
	if other == nil {
		return
	}
	for i, n := range other.Counts {
		s.Counts[i] += n
	}
	s.N += other.N
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Percentiles is the standard reporting set, in export order.
var Percentiles = []struct {
	Label string  // key fragment: "p50", "p90", ...
	Q     float64 // quantile in [0, 1]
}{
	{"p50", 0.50},
	{"p90", 0.90},
	{"p95", 0.95},
	{"p99", 0.99},
	{"p999", 0.999},
}
