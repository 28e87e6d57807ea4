package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Add(CtrPagesRead, 3) // must not panic
	if got := c.Get(CtrPagesRead); got != 0 {
		t.Fatalf("nil Get = %d, want 0", got)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil Snapshot = %v, want empty", snap)
	}
}

func TestCountersAddSnapshot(t *testing.T) {
	var c Counters
	c.Add(CtrRowsScanned, 10)
	c.Add(CtrRowsScanned, 5)
	c.Add(CtrPoolHits, 2)
	if got := c.Get(CtrRowsScanned); got != 15 {
		t.Fatalf("rows_scanned = %d, want 15", got)
	}
	snap := c.Snapshot()
	if len(snap) != 2 || snap["rows_scanned"] != 15 || snap["pool_hits"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestCounterNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for i := Counter(0); i < NumCounters; i++ {
		name := i.Name()
		if name == "" {
			t.Fatalf("counter %d has empty name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
		if help := i.Help(); help == "" || strings.ContainsRune(help, '\n') {
			t.Fatalf("counter %s has HELP %q, want one non-empty line", name, help)
		}
	}
}

func TestSpanNilFastPath(t *testing.T) {
	var s *Span
	s.End()
	s.AddTimed("x", time.Second)
	if s.startChild("child") != nil {
		t.Fatal("nil startChild should return nil")
	}
	if s.Counters() != nil {
		t.Fatal("nil Counters should return nil")
	}
	if s.Summary() != nil {
		t.Fatal("nil Summary should return nil")
	}
	ctx := context.Background()
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("installing a nil span must return ctx unchanged")
	}
	if SpanFrom(ctx) != nil || CountersFrom(ctx) != nil {
		t.Fatal("bare context must carry no span/counters")
	}
	ctx2, child := StartSpan(ctx, "stage")
	if ctx2 != ctx || child != nil {
		t.Fatal("StartSpan without a parent must be a no-op")
	}
}

func TestSpanTreeAndTotals(t *testing.T) {
	root := NewRoot("req")
	ctx := ContextWithSpan(context.Background(), root)
	if SpanFrom(ctx) != root {
		t.Fatal("SpanFrom lost the root")
	}
	ctx2, stage := StartSpan(ctx, "scan")
	stage.Counters().Add(CtrRowsScanned, 7)
	CountersFrom(ctx2).Add(CtrPagesRead, 2)
	stage.End()
	root.Counters().Add(CtrPoolHits, 1)
	root.AddTimed("parse", 3*time.Millisecond)
	root.End()

	sum := root.Summary()
	if sum.Name != "req" || len(sum.Children) != 2 {
		t.Fatalf("summary shape: %+v", sum)
	}
	if sum.Children[0].Name != "scan" || sum.Children[1].Name != "parse" {
		t.Fatalf("children: %q, %q", sum.Children[0].Name, sum.Children[1].Name)
	}
	if got := sum.Children[1].DurationUS; got < 2900 || got > 3100 {
		t.Fatalf("AddTimed duration_us = %d, want ~3000", got)
	}
	totals := sum.Totals()
	if totals["rows_scanned"] != 7 || totals["pages_read"] != 2 || totals["pool_hits"] != 1 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestSpanConcurrent(t *testing.T) {
	root := NewRoot("req")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ch := root.startChild("child")
				ch.Counters().Add(CtrCellsDecoded, 1)
				ch.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	sum := root.Summary()
	if len(sum.Children) != 800 {
		t.Fatalf("children = %d, want 800", len(sum.Children))
	}
	if got := sum.Totals()["cells_decoded"]; got != 800 {
		t.Fatalf("cells_decoded = %d, want 800", got)
	}
}

// TestHistogramBuckets pins the bucket boundary behavior: bucket i has
// the cumulative upper bound 2^i µs, and an observation of d lands in
// the first bucket whose bound strictly exceeds it (values at an exact
// power of two go to the next bucket up).
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},     // rounds to 0µs → le=1µs
		{time.Microsecond, 1},          // 1µs < 2µs
		{2 * time.Microsecond, 2},      // 2µs < 4µs
		{3 * time.Microsecond, 2},      // 3µs < 4µs
		{1000 * time.Microsecond, 10},  // 1ms < 1.024ms
		{time.Second, 20},              // 1e6µs < 2^20µs
		{5 * time.Minute, HistBuckets}, // beyond 2^27µs → +Inf
		{-time.Second, 0},              // defensive clamp
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if BucketBoundUS(0) != 1 || BucketBoundUS(10) != 1024 || BucketBoundUS(HistBuckets-1) != 1<<27 {
		t.Fatal("bucket bounds moved")
	}
	if BucketBoundUS(HistBuckets) != -1 {
		t.Fatal("+Inf bound sentinel moved")
	}
}

func TestHistogramObserveSnapshotQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket le=128µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // bucket le=65536µs
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNS != 90*int64(100*time.Microsecond)+10*int64(50*time.Millisecond) {
		t.Fatalf("sum_ns = %d", s.SumNS)
	}
	// Cumulative monotonicity and +Inf == Count.
	prev := int64(0)
	for i, c := range s.Counts {
		if c < prev {
			t.Fatalf("bucket %d not monotone: %d < %d", i, c, prev)
		}
		prev = c
	}
	if s.Counts[HistBuckets] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Counts[HistBuckets], s.Count)
	}
	if p50 := s.Quantile(0.5); p50 != 128e-6 {
		t.Fatalf("p50 = %v, want 128µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 != 65536e-6 {
		t.Fatalf("p99 = %v, want 65.536ms", p99)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func BenchmarkCountersAdd(b *testing.B) {
	var c Counters
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(CtrRowsScanned, 1)
		}
	})
}

func BenchmarkCountersAddNil(b *testing.B) {
	var c *Counters
	for i := 0; i < b.N; i++ {
		c.Add(CtrRowsScanned, 1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(137 * time.Microsecond)
		}
	})
}
