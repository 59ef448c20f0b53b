package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Group is shared by every span of one campaign or job.
type Span struct {
	ID     int
	Parent int // 0: root
	Name   string
	Group  string
	Start  time.Time
	End    time.Time
}

// Dur is the span's wall-clock length.
func (s *Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one branch per call.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	t0    time.Time
}

// NewTracer starts an empty trace whose time origin is now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Add records a finished span and returns its ID (0 when t is nil).
func (t *Tracer) Add(parent int, name, group string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Group: group, Start: start, End: end})
	return id
}

// Time runs fn inside a span and returns the span's ID.
func (t *Tracer) Time(parent int, name, group string, fn func()) int {
	start := time.Now()
	fn()
	return t.Add(parent, name, group, start, time.Now())
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval covered by
// the union of its children. Children may overlap each other (parallel
// workers) and may stick out of the parent; only the covered part of the
// parent's own interval is subtracted, once.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		j := i + 1
		for ; j < len(ivs) && !ivs[j].a.After(b); j++ {
			if ivs[j].b.After(b) {
				b = ivs[j].b
			}
		}
		covered += b.Sub(a)
		i = j
	}
	return parent.Dur() - covered
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// Summarize folds spans by name into counts, total time and self time.
func Summarize(spans []Span) []SpanSummary {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*SpanSummary{}
	var names []string
	for _, s := range spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &SpanSummary{Name: s.Name}
			by[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.Total += s.Dur()
		sum.Self += selfTime(s, kids[s.ID])
	}
	sort.Strings(names)
	out := make([]SpanSummary, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// WriteChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and ui.perfetto.dev open. Each span is a complete ("X")
// event in microseconds from the trace origin. Spans are packed onto the
// fewest tracks on which none overlaps another, so parallel runs show as
// parallel rows; args carry the span's ID, parent and group.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"bjbench\"}}")
	var stacks [][]time.Time // per track: ends of its open (nested) spans
	for _, s := range spans {
		tid := -1
		for k := range stacks {
			st := stacks[k]
			for len(st) > 0 && !st[len(st)-1].After(s.Start) {
				st = st[:len(st)-1]
			}
			stacks[k] = st
			// A span fits on a track when it nests inside the innermost
			// open span there, or the track is idle.
			if len(st) == 0 || !s.End.After(st[len(st)-1]) {
				tid = k
				break
			}
		}
		if tid < 0 {
			tid = len(stacks)
			stacks = append(stacks, nil)
		}
		stacks[tid] = append(stacks[tid], s.End)
		fmt.Fprintf(bw, ",\n{\"name\":%q,\"cat\":\"bjbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"group\":%q}}",
			s.Name, float64(s.Start.Sub(t.t0).Nanoseconds())/1e3, float64(s.Dur().Nanoseconds())/1e3, tid, s.ID, s.Parent, s.Group)
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
