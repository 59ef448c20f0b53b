package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

func TestStageOf(t *testing.T) {
	const recv = "blackjack/internal/pipeline.(*Machine)."
	cases := map[string]string{
		recv + "fetchTrailingPacket":             "fetch",
		recv + "dispatchOne":                     "dispatch",
		recv + "issueStage":                      "issue",
		recv + "resolveCompletions":              "complete",
		recv + "commitLeading":                   "commit",
		recv + "squash":                          "squash",
		recv + "shuffleStage":                    "",
		"blackjack/internal/isa.(*Machine).Step": "",
	}
	for fn, want := range cases {
		if got := stageOf(fn); got != want {
			t.Errorf("stageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStageSharesFromARealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the pipeline for half a second")
	}
	p := prog.MustBenchmark("gcc")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		m, err := pipeline.New(pipeline.DefaultConfig(), pipeline.ModeBlackJack, p)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(5000)
	}
	pprof.StopCPUProfile()
	shares, n, err := StageShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples inside Machine.Tick")
	}
	sum := 0.0
	for _, s := range stages {
		sum += shares[s]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1: %v", sum, shares)
	}
	if shares["fetch"]+shares["dispatch"]+shares["issue"]+shares["commit"] == 0 {
		t.Errorf("no samples attributed to named stages: %v", shares)
	}
}
