package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestWindowP90sAlignsToMeasuredRounds checks that job_p90_ms windows start
// at the first measured round, and that a partial window or one holding a
// failed job yields no p90.
func TestWindowP90sAlignsToMeasuredRounds(t *testing.T) {
	size := p90Rounds * ServeRound
	t0 := time.Unix(0, 0)
	var outs []jobOutcome
	// Three windows and a half after the warm-up round; window w's job k
	// takes (w+1)·k ms, so its p90 is (w+1)·rank(size, 0.9) ms.
	for i := 0; i < 7*size/2; i++ {
		w, k := i/size, i%size+1
		o := jobOutcome{index: ServeRound + i}
		o.submit[0] = t0
		o.stream = t0.Add(time.Duration((w+1)*k) * time.Millisecond)
		if w == 1 && k == 1 {
			o.err = errors.New("rejected")
		}
		outs = append(outs, o)
	}
	p90 := float64(rank(size, 0.9))
	want := []float64{p90, 3 * p90}
	if got := windowP90s(outs); !reflect.DeepEqual(got, want) {
		t.Fatalf("windowP90s = %v, want %v", got, want)
	}
}

// TestRatesSpanFirstSubmitToLastStreamEnd checks that throughput counts the
// runs and jobs that succeeded over the whole span of the measured jobs.
func TestRatesSpanFirstSubmitToLastStreamEnd(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	outs := []jobOutcome{
		{runs: 20, submit: [2]time.Time{at(1)}, stream: at(3)},
		{runs: 10, submit: [2]time.Time{at(0)}, stream: at(2)},
		{runs: 30, submit: [2]time.Time{at(2)}, stream: at(4), err: errors.New("quarantined")},
	}
	if r, j := rates(outs); r != 30.0/4 || j != 2.0/4 {
		t.Fatalf("rates = %v runs/s, %v jobs/s; want 7.5, 0.5", r, j)
	}
}
