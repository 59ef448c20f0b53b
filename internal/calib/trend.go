package calib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"blackjack/internal/journal"
	"blackjack/internal/stats"
)

// Record is one normalized BENCH trajectory record: numeric fields and
// string labels of the flat JSON object, schema-agnostic. Records written
// before a field existed normalize to the same shape — a missing number is
// simply absent from Fields, a missing label is the empty string — so
// trend fitting never special-cases schema versions.
type Record struct {
	Fields map[string]float64
	Labels map[string]string
}

// rawTrajectory parses a trajectory file body — a JSON array of records —
// into its raw records.
func rawTrajectory(data []byte) ([]json.RawMessage, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, nil
	}
	var records []json.RawMessage
	if err := json.Unmarshal(trimmed, &records); err != nil {
		return nil, fmt.Errorf("calib: invalid trajectory: %w", err)
	}
	return records, nil
}

// normalizeRecord decodes one raw record into the schema-agnostic form.
func normalizeRecord(raw json.RawMessage) (Record, error) {
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		return Record{}, fmt.Errorf("calib: trajectory record is not an object: %w", err)
	}
	rec := Record{Fields: map[string]float64{}, Labels: map[string]string{"at": ""}}
	for k, v := range obj {
		switch t := v.(type) {
		case float64:
			rec.Fields[k] = t
		case string:
			rec.Labels[k] = t
		case bool:
			if t {
				rec.Fields[k] = 1
			} else {
				rec.Fields[k] = 0
			}
		}
	}
	return rec, nil
}

// LoadTrajectory parses a trajectory body into normalized records, oldest
// first.
func LoadTrajectory(data []byte) ([]Record, error) {
	raws, err := rawTrajectory(data)
	if err != nil {
		return nil, err
	}
	records := make([]Record, 0, len(raws))
	for _, raw := range raws {
		rec, err := normalizeRecord(raw)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	return records, nil
}

// LoadTrajectoryFile reads and parses the trajectory at path.
func LoadTrajectoryFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	records, err := LoadTrajectory(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}

// TrajectoryIdentityFields are the labels/fields every record of one
// trajectory file must agree on: a trajectory tracks one workload
// configuration over time, so mixing benchmarks, modes or site counts in
// one file would corrupt every trend fitted over it.
var TrajectoryIdentityFields = []string{"benchmark", "mode", "sites"}

// TrajectoryMismatchError is the typed refusal to append a record to a
// trajectory recorded for a different workload, naming the differing field
// (the trajectory analogue of journal.ErrKeyMismatch).
type TrajectoryMismatchError struct {
	Path  string
	Field string
	Have  string // value in the existing trajectory
	Want  string // value on the record being appended
}

func (e *TrajectoryMismatchError) Error() string {
	return fmt.Sprintf("calib: trajectory %s does not match this record: %s changed: file has %q, record has %q",
		e.Path, e.Field, e.Have, e.Want)
}

// identityValue renders one identity field of a record canonically; ok is
// false when the record does not carry the field (older schemas), which
// imposes no constraint.
func identityValue(rec Record, field string) (string, bool) {
	if v, ok := rec.Fields[field]; ok {
		return strconv.FormatFloat(v, 'g', -1, 64), true
	}
	if v, ok := rec.Labels[field]; ok && v != "" {
		return v, true
	}
	return "", false
}

// AppendTrajectory appends rec (any JSON-marshalable flat record) to the
// trajectory array at path, refusing — with a *TrajectoryMismatchError — a
// record whose identity fields disagree with any record already in the
// file. The file is replaced atomically, so a crash mid-write leaves the
// previous trajectory intact.
func AppendTrajectory(path string, rec any) error {
	encoded, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	newRec, err := normalizeRecord(encoded)
	if err != nil {
		return err
	}

	var records []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if records, err = rawTrajectory(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, raw := range records {
		old, err := normalizeRecord(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, field := range TrajectoryIdentityFields {
			have, haveOK := identityValue(old, field)
			want, wantOK := identityValue(newRec, field)
			if haveOK && wantOK && have != want {
				return &TrajectoryMismatchError{Path: path, Field: field, Have: have, Want: want}
			}
		}
	}

	records = append(records, encoded)
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return journal.WriteFileAtomic(path, out)
}

// TrendMetric is one gated metric of a BENCH trajectory.
type TrendMetric struct {
	// Key is the record field to gate.
	Key string
	// HigherIsBetter orients the gate: a regression is the newest value
	// falling below the baseline (speedups) or rising above it (costs).
	HigherIsBetter bool
	// Pass and Drift are relative tolerances around the baseline median:
	// the newest value PASSes within baseline·(1±Pass) on the bad side and
	// DRIFTs up to baseline·(1±Drift). The good direction is never gated.
	Pass, Drift float64
}

// TrendSpec is the tolerance window fitted over a trajectory.
type TrendSpec struct {
	// Window is the number of most-recent records (excluding the newest)
	// whose median forms each metric's baseline.
	Window int
	// Metrics are the gated fields.
	Metrics []TrendMetric
}

// DefaultTrendSpec gates the campaign-bench trajectory fields. Wall-clock
// ratios get generous bands (CI runners and host load are noisy); alloc
// counts are nearly deterministic, so their bands are tight.
func DefaultTrendSpec() TrendSpec {
	return TrendSpec{
		Window: 8,
		Metrics: []TrendMetric{
			{Key: "speedup", HigherIsBetter: true, Pass: 0.35, Drift: 0.55},
			{Key: "ff_speedup", HigherIsBetter: true, Pass: 0.35, Drift: 0.55},
			{Key: "cache_speedup", HigherIsBetter: true, Pass: 0.50, Drift: 0.70},
			{Key: "ns_per_instr", HigherIsBetter: false, Pass: 0.50, Drift: 0.80},
			{Key: "cold_allocs_per_run", HigherIsBetter: false, Pass: 0.05, Drift: 0.10},
			{Key: "ff_allocs_per_run", HigherIsBetter: false, Pass: 0.05, Drift: 0.10},
		},
	}
}

// TrendResult is one gated metric's evaluation.
type TrendResult struct {
	Metric   TrendMetric
	Newest   float64
	Baseline float64
	// Samples counts the baseline records the median was fitted over. 0
	// means no earlier record carries the metric (a fresh trajectory, or a
	// field newer than the history) — vacuously PASS, there is nothing to
	// regress against.
	Samples int
	Verdict Verdict
}

// TrendReport is an evaluated trajectory.
type TrendReport struct {
	Path    string
	Records int
	Results []TrendResult
}

// EvalTrend gates the newest record of a trajectory against the median of
// the up-to-Window records preceding it, per metric.
func EvalTrend(records []Record, spec TrendSpec) *TrendReport {
	rep := &TrendReport{Records: len(records)}
	if len(records) == 0 {
		return rep
	}
	newest := records[len(records)-1]
	history := records[:len(records)-1]
	for _, m := range spec.Metrics {
		res := TrendResult{Metric: m, Baseline: math.NaN()}
		v, ok := newest.Fields[m.Key]
		if !ok {
			res.Newest = math.NaN()
			rep.Results = append(rep.Results, res)
			continue
		}
		res.Newest = v
		var window []float64
		for i := len(history) - 1; i >= 0 && len(window) < spec.Window; i-- {
			if hv, ok := history[i].Fields[m.Key]; ok {
				window = append(window, hv)
			}
		}
		res.Samples = len(window)
		if len(window) == 0 {
			rep.Results = append(rep.Results, res)
			continue
		}
		res.Baseline = stats.Median(window)
		var band Band
		if m.HigherIsBetter {
			band = AtLeast(res.Baseline*(1-m.Pass), res.Baseline*(1-m.Drift))
		} else {
			band = AtMost(res.Baseline*(1+m.Pass), res.Baseline*(1+m.Drift))
		}
		res.Verdict = band.Eval(v)
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// EvalTrendFile loads the trajectory at path and gates it with the default
// spec.
func EvalTrendFile(path string) (*TrendReport, error) {
	records, err := LoadTrajectoryFile(path)
	if err != nil {
		return nil, err
	}
	rep := EvalTrend(records, DefaultTrendSpec())
	rep.Path = path
	return rep, nil
}

// Counts tallies the verdicts.
func (r *TrendReport) Counts() (pass, drift, fail int) {
	for _, res := range r.Results {
		switch res.Verdict {
		case Pass:
			pass++
		case Drift:
			drift++
		default:
			fail++
		}
	}
	return pass, drift, fail
}

// Failed reports whether any metric regressed beyond its drift band.
func (r *TrendReport) Failed() bool {
	_, _, fail := r.Counts()
	return fail > 0
}

// Drifting returns the keys of metrics with a DRIFT verdict, in spec order.
func (r *TrendReport) Drifting() []string {
	var keys []string
	for _, res := range r.Results {
		if res.Verdict == Drift {
			keys = append(keys, res.Metric.Key)
		}
	}
	return keys
}

// trendNum formats a trend value; absent values render as "-".
func trendNum(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// Table renders the trend report, one gated metric per row.
func (r *TrendReport) Table() *stats.Table {
	pass, drift, fail := r.Counts()
	title := fmt.Sprintf("BENCH trend gate (%d records): %d PASS, %d DRIFT, %d FAIL", r.Records, pass, drift, fail)
	if r.Path != "" {
		title = fmt.Sprintf("BENCH trend gate %s (%d records): %d PASS, %d DRIFT, %d FAIL",
			r.Path, r.Records, pass, drift, fail)
	}
	t := stats.NewTable(title, "metric", "direction", "baseline (median)", "window", "newest", "verdict")
	for _, res := range r.Results {
		dir := "higher better"
		if !res.Metric.HigherIsBetter {
			dir = "lower better"
		}
		t.AddRow(res.Metric.Key, dir, trendNum(res.Baseline),
			strconv.Itoa(res.Samples), trendNum(res.Newest), res.Verdict.String())
	}
	return t
}

// WriteText renders the trend table to w.
func (r *TrendReport) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, r.Table().String())
	return err
}

type trendResultJSON struct {
	Key      string   `json:"key"`
	Higher   bool     `json:"higher_is_better"`
	Baseline *float64 `json:"baseline"`
	Samples  int      `json:"samples"`
	Newest   *float64 `json:"newest"`
	Verdict  string   `json:"verdict"`
}

type trendReportJSON struct {
	Path    string            `json:"path,omitempty"`
	Records int               `json:"records"`
	Pass    int               `json:"pass"`
	Drift   int               `json:"drift"`
	Fail    int               `json:"fail"`
	Metrics []trendResultJSON `json:"metrics"`
}

// jsonFinite drops NaN (absent) values to null for JSON encoding.
func jsonFinite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// WriteJSON renders the trend report as deterministic JSON.
func (r *TrendReport) WriteJSON(w io.Writer) error {
	pass, drift, fail := r.Counts()
	out := trendReportJSON{Path: r.Path, Records: r.Records, Pass: pass, Drift: drift, Fail: fail,
		Metrics: make([]trendResultJSON, 0, len(r.Results))}
	for _, res := range r.Results {
		out.Metrics = append(out.Metrics, trendResultJSON{
			Key: res.Metric.Key, Higher: res.Metric.HigherIsBetter,
			Baseline: jsonFinite(res.Baseline), Samples: res.Samples,
			Newest: jsonFinite(res.Newest), Verdict: res.Verdict.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
