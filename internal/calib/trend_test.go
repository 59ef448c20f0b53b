package calib

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// legacyBody is a record in the oldest committed schema: no "at" stamp
// and no cache fields, exactly the schema the first committed campaign
// record was written in.
const legacyBody = `{
  "benchmark": "gcc",
  "mode": "blackjack",
  "sites": 6,
  "speedup": 3.6,
  "ff_speedup": 11.0,
  "ns_per_instr": 2206.5,
  "cold_allocs_per_run": 8005,
  "ff_allocs_per_run": 853
}`

func writeFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traj.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTrajectoryEmptyAndInvalid(t *testing.T) {
	if records, err := LoadTrajectory(nil); err != nil || len(records) != 0 {
		t.Errorf("empty body = %v, %v; want no records", records, err)
	}
	if _, err := LoadTrajectory([]byte("not json")); err == nil {
		t.Error("garbage body did not error")
	}
	if _, err := LoadTrajectory([]byte(`[{"a": 1}, 42]`)); err == nil {
		t.Error("non-object array element did not error")
	}
	if _, err := LoadTrajectory([]byte(legacyBody)); err == nil {
		t.Error("a bare record outside a trajectory array did not error")
	}
}

// A trajectory mixing the legacy schema with newer records trend-fits
// without any schema special-casing: metrics present in both schemas get a
// real baseline, metrics only the newest record carries gate vacuously.
func TestEvalTrendMixedSchemas(t *testing.T) {
	records, err := LoadTrajectory([]byte(`[
		` + legacyBody + `,
		{"at": "2026-08-08T11:49:20Z", "benchmark": "gcc", "mode": "blackjack", "sites": 6,
		 "speedup": 3.55, "ff_speedup": 10.5, "cache_speedup": 233.0,
		 "ns_per_instr": 2150, "cold_allocs_per_run": 8006, "ff_allocs_per_run": 855}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	rep := EvalTrend(records, DefaultTrendSpec())
	byKey := map[string]TrendResult{}
	for _, res := range rep.Results {
		byKey[res.Metric.Key] = res
	}
	if res := byKey["speedup"]; res.Samples != 1 || res.Verdict != Pass || res.Baseline != 3.6 {
		t.Errorf("speedup = %+v, want 1-sample PASS against baseline 3.6", res)
	}
	// cache_speedup exists only in the newest record: no baseline, no gate.
	if res := byKey["cache_speedup"]; res.Samples != 0 || res.Verdict != Pass || !math.IsNaN(res.Baseline) {
		t.Errorf("cache_speedup = %+v, want 0-sample vacuous PASS", res)
	}
	if pass, drift, fail := rep.Counts(); pass != 6 || drift != 0 || fail != 0 {
		t.Errorf("counts = %d/%d/%d, want 6/0/0", pass, drift, fail)
	}
}

// A collapsed metric on the newest record must trip the gate.
func TestEvalTrendRegressionTripsGate(t *testing.T) {
	base := Record{Fields: map[string]float64{"ff_speedup": 10, "ns_per_instr": 2000}}
	records := []Record{base, base, base,
		{Fields: map[string]float64{"ff_speedup": 3, "ns_per_instr": 4500}}}
	rep := EvalTrend(records, DefaultTrendSpec())
	var failed []string
	for _, res := range rep.Results {
		if res.Verdict == Fail {
			failed = append(failed, res.Metric.Key)
		}
	}
	if len(failed) != 2 || failed[0] != "ff_speedup" || failed[1] != "ns_per_instr" {
		t.Errorf("failed metrics = %v, want [ff_speedup ns_per_instr]", failed)
	}
	if !rep.Failed() {
		t.Error("report with regressed metrics did not fail")
	}
	// Just inside the drift band instead: DRIFT, not FAIL (ff_speedup
	// passes down to 6.5, drifts down to 4.5).
	records[3] = Record{Fields: map[string]float64{"ff_speedup": 5, "ns_per_instr": 2000}}
	rep = EvalTrend(records, DefaultTrendSpec())
	if drifting := rep.Drifting(); len(drifting) != 1 || drifting[0] != "ff_speedup" {
		t.Errorf("drifting = %v, want [ff_speedup]", drifting)
	}
}

// Improvement is never gated: a higher-is-better metric soaring above
// baseline stays PASS.
func TestEvalTrendImprovementNeverGated(t *testing.T) {
	records := []Record{
		{Fields: map[string]float64{"speedup": 3, "ns_per_instr": 2000}},
		{Fields: map[string]float64{"speedup": 300, "ns_per_instr": 2}},
	}
	rep := EvalTrend(records, DefaultTrendSpec())
	for _, res := range rep.Results {
		if res.Samples > 0 && res.Verdict != Pass {
			t.Errorf("%s improved but verdict = %v", res.Metric.Key, res.Verdict)
		}
	}
}

func TestEvalTrendWindowLimitsBaseline(t *testing.T) {
	// 12 history records: the first 4 (value 1000) must fall outside the
	// 8-record window; the in-window median is 10.
	var records []Record
	for i := 0; i < 4; i++ {
		records = append(records, Record{Fields: map[string]float64{"speedup": 1000}})
	}
	for i := 0; i < 8; i++ {
		records = append(records, Record{Fields: map[string]float64{"speedup": 10}})
	}
	records = append(records, Record{Fields: map[string]float64{"speedup": 9}})
	rep := EvalTrend(records, TrendSpec{Window: 8, Metrics: []TrendMetric{
		{Key: "speedup", HigherIsBetter: true, Pass: 0.35, Drift: 0.55}}})
	res := rep.Results[0]
	if res.Samples != 8 || res.Baseline != 10 || res.Verdict != Pass {
		t.Errorf("windowed result = %+v, want 8 samples, baseline 10, PASS", res)
	}
}

func TestAppendTrajectoryRefusesMismatch(t *testing.T) {
	cases := []struct {
		name  string
		rec   map[string]any
		field string
	}{
		{"benchmark", map[string]any{"benchmark": "gzip", "mode": "blackjack", "sites": 6}, "benchmark"},
		{"mode", map[string]any{"benchmark": "gcc", "mode": "srt", "sites": 6}, "mode"},
		{"sites", map[string]any{"benchmark": "gcc", "mode": "blackjack", "sites": 12}, "sites"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, "["+legacyBody+"]")
			err := AppendTrajectory(path, c.rec)
			var mismatch *TrajectoryMismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("append = %v, want *TrajectoryMismatchError", err)
			}
			if mismatch.Field != c.field {
				t.Errorf("mismatch names field %q, want %q", mismatch.Field, c.field)
			}
			if mismatch.Path != path {
				t.Errorf("mismatch names path %q, want %q", mismatch.Path, path)
			}
			// The refused record must not have been written.
			if records, _ := LoadTrajectoryFile(path); len(records) != 1 {
				t.Errorf("refused append still grew the file to %d records", len(records))
			}
		})
	}
}

// A record that simply lacks an identity field (older schema) imposes no
// constraint and appends cleanly.
func TestAppendTrajectoryLegacyRecordUnconstrained(t *testing.T) {
	path := writeFile(t, "["+legacyBody+"]")
	if err := AppendTrajectory(path, map[string]any{"speedup": 3.5}); err != nil {
		t.Fatalf("schema-poor record refused: %v", err)
	}
}

// The committed campaign trajectory must load, carry an "at" stamp on
// every record, and pass the default trend gate — the exact check CI runs.
func TestCommittedCampaignTrajectoryPassesGate(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_campaign.json")
	records, err := LoadTrajectoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("campaign trajectory has %d records, want >= 2", len(records))
	}
	for i, rec := range records {
		if rec.Labels["at"] == "" {
			t.Errorf("record %d has no \"at\" stamp (schema v0 leftover)", i)
		}
	}
	rep, err := EvalTrendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Errorf("committed trajectory fails the trend gate:\n%s", rep.Table())
	}
}
