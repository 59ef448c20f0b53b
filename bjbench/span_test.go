package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func span(id, parent, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: at(start), End: at(end)}
}

func TestSelfTime(t *testing.T) {
	parent := span(1, 0, 0, 100)
	cases := []struct {
		name     string
		children []Span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{span(2, 1, 10, 20), span(3, 1, 30, 50)}, 70},
		{"overlapping workers", []Span{span(2, 1, 10, 60), span(3, 1, 40, 80), span(4, 1, 45, 50)}, 30},
		{"identical", []Span{span(2, 1, 0, 100), span(3, 1, 0, 100)}, 0},
		{"touching", []Span{span(2, 1, 10, 20), span(3, 1, 20, 30)}, 80},
		{"sticking out", []Span{span(2, 1, -20, 10), span(3, 1, 90, 130)}, 80},
		{"outside", []Span{span(2, 1, 120, 130)}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestSummarizeUsesSelfTime(t *testing.T) {
	tr := NewTracer()
	p := tr.Add(0, "campaign", "c", at(0), at(100))
	tr.Add(p, "run", "c", at(0), at(60))
	tr.Add(p, "run", "c", at(10), at(90))
	got := map[string]SpanSummary{}
	for _, s := range Summarize(tr.Spans()) {
		got[s.Name] = s
	}
	if c := got["campaign"]; c.Count != 1 || c.Total != 100*time.Millisecond || c.Self != 10*time.Millisecond {
		t.Errorf("campaign summary %+v", c)
	}
	if r := got["run"]; r.Count != 2 || r.Total != 140*time.Millisecond || r.Self != 140*time.Millisecond {
		t.Errorf("run summary %+v", r)
	}
}

func TestWriteChromeKeepsTracksNested(t *testing.T) {
	tr := &Tracer{t0: t0}
	p := tr.Add(0, "campaign", "c", at(0), at(100))
	tr.Add(p, "run", "c", at(0), at(60))
	tr.Add(p, "run", "c", at(10), at(90))
	tr.Add(0, "later", "d", at(120), at(130))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			Tid int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	byTid := map[int][][2]float64{}
	n := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		n++
		for _, o := range byTid[e.Tid] {
			// Events on one track either nest or are disjoint.
			nested := (e.Ts >= o[0] && e.Ts+e.Dur <= o[1]) || (o[0] >= e.Ts && o[1] <= e.Ts+e.Dur)
			disjoint := e.Ts >= o[1] || e.Ts+e.Dur <= o[0]
			if !nested && !disjoint {
				t.Errorf("track %d: [%g,%g] overlaps [%g,%g]", e.Tid, e.Ts, e.Ts+e.Dur, o[0], o[1])
			}
		}
		byTid[e.Tid] = append(byTid[e.Tid], [2]float64{e.Ts, e.Ts + e.Dur})
	}
	if n != 4 || len(byTid) != 2 {
		t.Errorf("%d spans on %d tracks, want 4 on 2", n, len(byTid))
	}
}
