package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of an ascending-sorted slice by
// the nearest-rank rule; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentiles are the tail percentiles a report may quote, highest
// first. A percentile is quoted only when at least minBeyond samples lie
// beyond it, so it describes a body of ops rather than one outlier.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75}

const minBeyond = 10

// supportedTail returns the highest of tailPercentiles that n samples
// support (n*(1-q) >= minBeyond), falling back to the median.
func supportedTail(n int) float64 {
	for _, q := range tailPercentiles {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q
		}
	}
	return 0.5
}

// quartiles is a metric's own spread within one run: the quartiles of its
// per-window values. compare uses it to tell "unchanged" from "unresolved".
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func quartilesOf(vals []float64) quartiles {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quartiles{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// spread is the interquartile distance as a share of the median.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / q.Median
}

func median(vals []float64) float64 { return quartilesOf(vals).Median }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latStats summarizes one set of op latencies (in ms).
type latStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	// TailMS is the latency at TailPercentile, the highest percentile with
	// at least ten samples beyond it (0.99 once Count >= 1000).
	TailMS         float64 `json:"p99_ms"`
	TailPercentile float64 `json:"tail_percentile"`
	MeanMS         float64 `json:"mean_ms"`
}

func latStatsOf(latMS []float64) latStats {
	s := append([]float64(nil), latMS...)
	sort.Float64s(s)
	q := supportedTail(len(s))
	return latStats{Count: len(s), P50MS: quantile(s, 0.5), TailMS: quantile(s, q), TailPercentile: q, MeanMS: mean(s)}
}
