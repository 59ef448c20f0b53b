package diffcheck

import (
	"fmt"
	"strings"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/sim"
)

// This file implements the sampled-equivalence checker: the differential
// harness for sim.Config.FastForward. Sampled simulation promises that
// skipping a run's fault-free prefix on the functional model never changes
// what the campaign concludes — the per-site outcome class and whether the
// fault activated. Cycle counts, activation totals and detection latencies
// of fast-forwarded runs are window-relative by design, so the checker
// compares exactly the preserved figures and nothing else.

// SampledMismatch is one site whose sampled classification diverged from
// full simulation — a soundness bug in the fast-forward machinery (or a
// site whose outcome is genuinely timing-fragile and must be excluded from
// the fast path, as one-shot transients are).
type SampledMismatch struct {
	Index int
	Site  fault.Site

	FullOutcome    sim.Outcome
	SampledOutcome sim.Outcome
	FullActivated  bool
	SampledActive  bool
}

// String renders the mismatch.
func (m SampledMismatch) String() string {
	return fmt.Sprintf("site %d (%v): full %v/activated=%v, sampled %v/activated=%v",
		m.Index, m.Site, m.FullOutcome, m.FullActivated, m.SampledOutcome, m.SampledActive)
}

// SampledReport is the outcome of one sampled-vs-full campaign comparison.
type SampledReport struct {
	Benchmark string
	Sites     int
	// Mismatches lists every site whose preserved figures diverged.
	Mismatches []SampledMismatch
	// Full and Sampled are the two summaries, for inspection.
	Full    *sim.CampaignSummary
	Sampled *sim.CampaignSummary
}

// OK reports whether the sampled campaign matched full simulation.
func (r *SampledReport) OK() bool { return len(r.Mismatches) == 0 }

// String renders the report.
func (r *SampledReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sampled-equivalence %s: %d sites, %d mismatches\n",
		r.Benchmark, r.Sites, len(r.Mismatches))
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  MISMATCH %v\n", m)
	}
	return b.String()
}

// CompareSampledCampaign runs the same fault campaign twice — full
// simulation and sampled (fast-forward) — and verifies per site that the
// outcome class and the activated flag agree. The full reference runs with
// checkpointing, metrics and journaling stripped, so it is the plain cold
// campaign; the sampled run keeps the caller's CheckpointInterval
// (checkpoints then serve as fallback fork points).
func CompareSampledCampaign(cfg sim.Config, p *isa.Program, sites []fault.Site, opts sim.InjectOptions) (*SampledReport, error) {
	fullCfg := cfg
	fullCfg.FastForward = false
	fullCfg.CheckpointInterval = 0
	fullCfg.Metrics = nil
	fullCfg.Journal = nil
	full, err := sim.CampaignProgram(fullCfg, p, sites, opts)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: full campaign: %w", err)
	}
	sampledCfg := cfg
	sampledCfg.FastForward = true
	sampledCfg.Metrics = nil
	sampledCfg.Journal = nil
	sampled, err := sim.CampaignProgram(sampledCfg, p, sites, opts)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: sampled campaign: %w", err)
	}
	rep := &SampledReport{Benchmark: p.Name, Sites: len(sites), Full: full, Sampled: sampled}
	for i := range full.Results {
		f, s := full.Results[i], sampled.Results[i]
		if f.Outcome != s.Outcome || (f.Activations > 0) != (s.Activations > 0) {
			rep.Mismatches = append(rep.Mismatches, SampledMismatch{
				Index: i, Site: sites[i],
				FullOutcome: f.Outcome, SampledOutcome: s.Outcome,
				FullActivated: f.Activations > 0, SampledActive: s.Activations > 0,
			})
		}
	}
	return rep, nil
}
