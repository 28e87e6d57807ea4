package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one node of a per-request trace tree. Spans are created at the
// HTTP boundary (the root) and by instrumented stages below it; each span
// accumulates its own engine counters and child spans. A nil *Span is the
// "tracing off" value: every method is a no-op on it, so instrumented
// code never branches on enablement.
//
// Spans are safe for concurrent use: parallel stages of one request may
// start children and bump counters from many goroutines.
type Span struct {
	name  string
	start time.Time
	c     Counters

	mu       sync.Mutex
	end      time.Time
	children []*Span
}

// NewRoot starts a new root span. The caller must End it and is expected
// to install it into the request context with ContextWithSpan.
func NewRoot(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// startChild starts and returns a child span. On a nil receiver it
// returns nil, keeping the whole subtree disabled.
func (s *Span) startChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// AddTimed attaches an already-measured stage as a completed child span
// (used where stage timings are produced by existing code, e.g. the
// loader's parse/index/stage/insert breakdown). Nil-safe.
func (s *Span) AddTimed(name string, d time.Duration) {
	if s == nil {
		return
	}
	now := time.Now()
	child := &Span{name: name, start: now.Add(-d), end: now}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End marks the span finished. Nil-safe; a second End keeps the first
// end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Counters returns the span's counter set, or nil on a nil receiver —
// the value instrumented code passes down as the per-request attribution
// target.
func (s *Span) Counters() *Counters {
	if s == nil {
		return nil
	}
	return &s.c
}

// duration returns the span's duration (time since start if unfinished,
// 0 on a nil receiver).
func (s *Span) duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// SpanSummary is the JSON-able rendering of a span tree, echoed by
// ?debug=trace and written by the slow-query log.
type SpanSummary struct {
	Name       string           `json:"name"`
	DurationUS int64            `json:"duration_us"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanSummary   `json:"children,omitempty"`
}

// Summary renders the span tree. Nil receivers return nil.
func (s *Span) Summary() *SpanSummary {
	if s == nil {
		return nil
	}
	sum := &SpanSummary{
		Name:       s.name,
		DurationUS: s.duration().Microseconds(),
		Counters:   s.c.Snapshot(),
	}
	if len(sum.Counters) == 0 {
		sum.Counters = nil
	}
	s.mu.Lock()
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, ch := range children {
		sum.Children = append(sum.Children, ch.Summary())
	}
	return sum
}

// Totals sums the summary's counters over the whole tree.
func (s *SpanSummary) Totals() map[string]int64 {
	out := make(map[string]int64)
	if s == nil {
		return out
	}
	var walk func(n *SpanSummary)
	walk = func(n *SpanSummary) {
		for k, v := range n.Counters {
			out[k] += v
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(s)
	return out
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying s. Installing a nil span is a
// no-op returning ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// CountersFrom returns the per-request counter set carried by ctx, or
// nil when no span is active. Callers resolve this once per operation
// (never per row) and pass the result down.
func CountersFrom(ctx context.Context) *Counters {
	return SpanFrom(ctx).Counters()
}

// StartSpan starts a child of the span carried by ctx and returns a
// derived context carrying the child. When ctx has no span this is the
// fast path: it returns (ctx, nil) without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.startChild(name)
	return ContextWithSpan(ctx, child), child
}
