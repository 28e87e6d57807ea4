package main

import "testing"

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {1, 0.5},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLatStatsQuotesTheSupportedPercentile(t *testing.T) {
	lat := make([]float64, 500) // 1..500 ms
	for i := range lat {
		lat[len(lat)-1-i] = float64(i + 1)
	}
	s := latStatsOf(lat)
	if s.Count != 500 || s.P50MS != 250 || s.TailPercentile != 0.95 || s.TailMS != 475 {
		t.Errorf("latStatsOf(1..500) = %+v, want count 500, p50 250, p95 475", s)
	}
	if lat[0] != 500 {
		t.Error("latStatsOf sorted its argument in place")
	}
}

func TestQuartilesSpread(t *testing.T) {
	q := quartilesOf([]float64{4, 1, 3, 2, 8, 6, 7, 5})
	if q.Q1 != 2 || q.Median != 4 || q.Q3 != 6 || q.spread() != 1 {
		t.Errorf("quartiles of 1..8 = %+v (spread %g), want 2/4/6 and spread 1", q, q.spread())
	}
	if (quartiles{}).spread() != 0 {
		t.Error("spread of an empty metric must be 0, not NaN")
	}
}
