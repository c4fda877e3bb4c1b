package bench

import (
	"math"
	"slices"
	"time"
)

// Latency summarization for the request-level experiments (kcore-bench
// -experiment serve2 and replicate): the service-layer benchmarks measure
// per-request wall-clock samples, where a distribution — not a single
// ns/op — is the honest result.

// LatencySummary condenses a latency sample into the percentiles the
// request-level experiments record.
type LatencySummary struct {
	Count int
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// Summarize computes the summary of a sample (the input slice is sorted in
// place). A nil or empty sample yields a zero summary.
func Summarize(sample []time.Duration) LatencySummary {
	if len(sample) == 0 {
		return LatencySummary{}
	}
	slices.Sort(sample)
	var sum time.Duration
	for _, d := range sample {
		sum += d
	}
	return LatencySummary{
		Count: len(sample),
		P50:   Quantile(sample, 0.50),
		P90:   Quantile(sample, 0.90),
		P99:   Quantile(sample, 0.99),
		Max:   sample[len(sample)-1],
		Mean:  sum / time.Duration(len(sample)),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using the nearest-rank method (1-indexed rank ceil(q*n)). It
// panics on an empty sample.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Params renders the summary as result params (nanosecond values), merged
// with extra.
func (s LatencySummary) Params(extra map[string]any) map[string]any {
	out := map[string]any{
		"count":   s.Count,
		"p50_ns":  s.P50.Nanoseconds(),
		"p90_ns":  s.P90.Nanoseconds(),
		"p99_ns":  s.P99.Nanoseconds(),
		"max_ns":  s.Max.Nanoseconds(),
		"mean_ns": s.Mean.Nanoseconds(),
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
