package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
)

// Campaign workload shape.
const (
	campaignParallel   = 2
	sampledInterval    = 2500
	workloadFull       = "campaign-full"
	workloadSampled    = "campaign-sampled"
	workloadKinds      = "campaign-kinds"
	workloadServeMixed = "serve-mixed"
)

//go:embed digests.json
var digestsJSON []byte

// digestFile pins the SHA-256 of every campaign table at DefaultSeed, per
// workload and cell name.
type digestFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

var injectOpts = sim.InjectOptions{SplitPayload: true}

// campaignSetup is everything a campaign workload prepares before its first
// timed campaign: the seeded programs, the site lists, and the pinned
// digests for the default seed.
type campaignSetup struct {
	workload string
	cells    []Cell
	progs    []*isa.Program // per cell (cells of one benchmark share it)
	sites    [][]fault.Site
	digests  map[string]string // nil unless the seed is DefaultSeed
}

// setupCampaign generates the workload's inputs for the seed. Program
// generation is recorded as prog.SeededBenchmark spans.
func setupCampaign(workload string, seed uint64, tr *Tracer) (*campaignSetup, error) {
	s := &campaignSetup{workload: workload, cells: CampaignCells(workload, seed)}
	gen := map[string]*isa.Program{}
	for _, c := range s.cells {
		key := fmt.Sprintf("%s#%d", c.Bench, c.Offset)
		p := gen[key]
		if p == nil {
			var err error
			tr.Time(0, "prog.SeededBenchmark", key, func() { p, err = prog.SeededBenchmark(c.Bench, c.Offset) })
			if err != nil {
				return nil, err
			}
			gen[key] = p
		}
		s.progs = append(s.progs, p)
		s.sites = append(s.sites, c.SiteList(pipeline.DefaultConfig()))
	}
	var df digestFile
	if err := json.Unmarshal(digestsJSON, &df); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if seed == df.Seed {
		s.digests = df.Workloads[workload]
	}
	return s, nil
}

// cellConfig is the simulator configuration of one cell: bjfault's defaults,
// plus fast-forward and checkpoints for the sampled workload. No cache, no
// journal, no resilience envelope.
func cellConfig(c Cell, sampled bool, parallel int) sim.Config {
	cfg := sim.Default(c.Mode, Budget)
	cfg.Parallel = parallel
	if sampled {
		cfg.FastForward = true
		cfg.CheckpointInterval = sampledInterval
	}
	return cfg
}

// cellRun is one executed campaign cell.
type cellRun struct {
	sum    *sim.CampaignSummary
	err    error
	dur    time.Duration
	digest string   // SHA-256 of the rendered table
	served []string // per site: the path that produced the run
}

// runOpts instrument a campaign pass. The zero value is the plain,
// untraced pass.
type runOpts struct {
	parallel int
	tr       *Tracer
	metrics  *obs.Registry
	journal  string // path of a campaign journal to attach ("": none)
}

// runCell executes cell i once through sim.CampaignProgram. With a tracer
// it records the campaign span and one child span per run; run start times
// are reconstructed from completion order, because the worker pool hands
// out indices in order and a worker takes its next index as soon as its
// last run completes.
func (s *campaignSetup) runCell(i int, o runOpts) cellRun {
	c := s.cells[i]
	cfg := cellConfig(c, s.workload == workloadSampled, o.parallel)
	cfg.Metrics = o.metrics
	n := len(s.sites[i])
	var (
		mu    sync.Mutex
		done  []time.Time
		order []int
	)
	out := cellRun{served: make([]string, n)}
	cfg.OnProgress = func(p sim.RunProgress) {
		now := time.Now()
		mu.Lock()
		out.served[p.Index] = p.Served
		done = append(done, now)
		order = append(order, p.Index)
		mu.Unlock()
	}
	if o.journal != "" {
		cj, err := sim.OpenCampaignJournal(o.journal, cfg, s.progs[i].Name, s.sites[i], injectOpts)
		if err != nil {
			out.err = err
			return out
		}
		defer cj.Close()
		cfg.Journal = cj
	}
	start := time.Now()
	out.sum, out.err = sim.CampaignProgram(cfg, s.progs[i], s.sites[i], injectOpts)
	end := time.Now()
	out.dur = end.Sub(start)
	if out.err == nil {
		var buf bytes.Buffer
		sim.WriteCampaignTable(&buf, c.Mode, s.progs[i].Name, out.sum)
		h := sha256.Sum256(buf.Bytes())
		out.digest = hex.EncodeToString(h[:])
	}
	if o.tr == nil {
		return out
	}
	parent := o.tr.Add(0, "sim.CampaignProgram", c.Name(), start, end)
	workers := min(max(o.parallel, 1), n)
	for k, idx := range order {
		rs := start
		if idx >= workers && idx-workers < len(done) {
			rs = done[idx-workers]
		}
		o.tr.Add(parent, "sim.run."+out.served[idx], c.Name(), rs, done[k])
	}
	return out
}

// runChecks counts a cell run's failed operations (fault-injection runs):
// every run of a cell that errored, quarantined runs, and every run of a
// table that disagrees with the pinned digest or with the cell's first
// round.
func (s *campaignSetup) runChecks(i int, r cellRun, first string) (failed int, why string) {
	n := len(s.sites[i])
	name := s.cells[i].Name()
	switch {
	case r.err != nil:
		return n, fmt.Sprintf("%s: %v", name, r.err)
	case len(r.sum.Quarantined) > 0:
		return len(r.sum.Quarantined), fmt.Sprintf("%s: %d quarantined runs", name, len(r.sum.Quarantined))
	case s.digests != nil && s.digests[name] != r.digest:
		return n, fmt.Sprintf("%s: table digest %s, pinned %s", name, r.digest, s.digests[name])
	case first != "" && r.digest != first:
		return n, fmt.Sprintf("%s: table changed between rounds", name)
	}
	return 0, ""
}

// sampledMismatches compares a sampled campaign with the full campaign of
// the same cell, per site, on the sampled contract: the outcome class and
// whether the fault activated.
func sampledMismatches(sampled, full *sim.CampaignSummary) int {
	bad := 0
	for k := range sampled.Results {
		a, b := sampled.Results[k], full.Results[k]
		if a.Outcome != b.Outcome || (a.Activations > 0) != (b.Activations > 0) {
			bad++
		}
	}
	return bad
}

// Result is one benchmark run's outcome, printed as the last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runCampaignWorkload is the untraced campaign run: set-up, whole rounds
// until the measuring window has passed, the remaining set-up repeats, then
// output checks.
func runCampaignWorkload(workload string, seed uint64, window time.Duration) (*Result, error) {
	var setups []float64
	setup := func() (*campaignSetup, error) {
		t := time.Now()
		s, err := setupCampaign(workload, seed, nil)
		setups = append(setups, time.Since(t).Seconds())
		return s, err
	}
	s, err := setup()
	if err != nil {
		return nil, err
	}

	first := make([]cellRun, len(s.cells))
	rounds := make([]int, len(s.cells))
	cellMS := make([][]float64, cellsPerRound)
	attempted, failed, n := 0, 0, 0
	for deadline := time.Now().Add(window); time.Now().Before(deadline); n++ {
		for k, i := range s.round(n) {
			r := s.runCell(i, runOpts{parallel: campaignParallel})
			cellMS[k] = append(cellMS[k], ms(r.dur))
			attempted += len(s.sites[i])
			if rounds[i] == 0 {
				first[i] = r
			}
			rounds[i]++
			f, why := s.runChecks(i, r, first[i].digest)
			if f > 0 {
				failed += f
				logf("check failed: %s", why)
			}
		}
	}
	for len(setups) < setupRepeats {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}

	if workload == workloadSampled {
		failed += s.checkSampled(first, rounds)
	}
	// A cell's time is its median over rounds (and so over variants), so a
	// burst of host noise during one campaign does not move the figures; a
	// round takes the sum of its cells' times.
	var typical []float64
	roundMS := 0.0
	for k := range cellMS {
		typical = append(typical, median(cellMS[k]))
		roundMS += typical[k]
	}
	logf("%d rounds; campaign times by cell (median over rounds): %.1f ms", n, typical)
	return &Result{Attempted: attempted, Failed: failed, Metrics: map[string]Metric{
		"setup_s":    {median(setups), "s"},
		"runs_per_s": {float64(s.runCount()) / (roundMS / 1e3), "runs/s"},
		"jobs_per_s": {cellsPerRound / (roundMS / 1e3), "jobs/s"},
		"job_p90_ms": {percentile(typical, 0.9), "ms"},
		"max_rss_mb": {maxRSSMiB(), "MiB"},
	}}, nil
}

// checkSampled re-runs every cell as a full campaign and counts, over all
// rounds, the sampled runs whose outcome class or activated flag differs.
func (s *campaignSetup) checkSampled(first []cellRun, rounds []int) int {
	failed := 0
	for i, c := range s.cells {
		if rounds[i] == 0 || first[i].err != nil {
			continue
		}
		cfg := cellConfig(c, false, campaignParallel)
		full, err := sim.CampaignProgram(cfg, s.progs[i], s.sites[i], injectOpts)
		if err != nil {
			failed += rounds[i] * len(s.sites[i])
			logf("check failed: %s: full reference: %v", c.Name(), err)
			continue
		}
		if bad := sampledMismatches(first[i].sum, full); bad > 0 {
			failed += rounds[i] * bad
			logf("check failed: %s: %d sites differ from the full campaign", c.Name(), bad)
		}
	}
	return failed
}

// round returns the indices of the cells round n runs.
func (s *campaignSetup) round(n int) []int {
	v := n % Variants
	idx := make([]int, cellsPerRound)
	for k := range idx {
		idx[k] = v*cellsPerRound + k
	}
	return idx
}

// runCount is the number of runs in one round (every variant has the same
// site lists).
func (s *campaignSetup) runCount() int {
	n := 0
	for _, i := range s.round(0) {
		n += len(s.sites[i])
	}
	return n
}

// cellDigests renders the digest table of every cell (for -update-digests).
func cellDigests(s *campaignSetup, rs []cellRun) map[string]string {
	m := map[string]string{}
	for i, r := range rs {
		m[s.cells[i].Name()] = r.digest
	}
	return m
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
