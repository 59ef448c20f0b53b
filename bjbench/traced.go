package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/journal"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// The traced run repeats a workload's fixed work — the first round of
// campaign cells, or the first serveTracedJobs jobs of the serve sequence —
// through each layer's public entry points, recording one span per call,
// and then times those entry points in isolation on the workload's own
// cells. Counts it reports (runs per path, simulated cycles, cache hits and
// misses) repeat exactly from run to run; a change that moves one changed
// the model, not its speed.

// serveTracedJobs is the traced serve-mixed job list length.
const serveTracedJobs = 48

// pathNames are the campaign execution paths as RunProgress.Served names
// them, keyed by the short name the per-layer metrics use.
var pathNames = []struct{ short, served string }{
	{"warm", "warm"}, {"ff", "fast-forward"}, {"forked", "forked"}, {"cold", "cold"},
}

// layers collects per-layer metrics.
type layers map[string]Metric

func (l layers) set(name, unit string, v float64) { l[name] = Metric{Value: v, Unit: unit} }

// probe is one (program, mode, budget) the layer timings run on.
type probe struct {
	prog   *isa.Program
	mode   pipeline.Mode
	budget int
	sites  []fault.Site
}

// traceCampaign is the traced run of a campaign workload.
func traceCampaign(workload string, seed uint64, workdir, work string) (*Result, error) {
	tr := NewTracer()
	L := layers{}
	s, err := setupCampaign(workload, seed, tr)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	check := func(i int, r cellRun, first string) {
		res.Attempted += len(s.sites[i])
		if f, why := s.runChecks(i, r, first); f > 0 {
			res.Failed += f
			logf("check failed: %s", why)
		}
	}

	// The workload's round, untraced and then traced, for trace.overhead.
	round := s.round(0)
	plain := make([]cellRun, len(s.cells))
	t := time.Now()
	for _, i := range round {
		plain[i] = s.runCell(i, runOpts{parallel: campaignParallel})
		check(i, plain[i], "")
	}
	plainRate := float64(s.runCount()) / time.Since(t).Seconds()

	reg := obs.NewRegistry()
	traced := make([]cellRun, len(s.cells))
	var wall time.Duration
	var cycles int64
	for _, i := range round {
		traced[i] = s.runCell(i, runOpts{parallel: campaignParallel, tr: tr, metrics: reg})
		check(i, traced[i], plain[i].digest)
		wall += traced[i].dur
		if traced[i].err == nil {
			for _, r := range traced[i].sum.Results {
				cycles += r.Cycles
			}
		}
	}
	L.set("trace.overhead", "ratio", float64(s.runCount())/wall.Seconds()/plainRate)
	if workload == workloadSampled {
		rounds := make([]int, len(s.cells))
		for _, i := range round {
			rounds[i] = 3 // untraced, traced and serial passes
		}
		res.Failed += s.checkSampled(plain, rounds)
	}

	// Path counts, from the campaign.* counters of the traced round.
	counter := func(n string) float64 { return float64(reg.Counter(n).Value()) }
	L.set("sim.runs.warm", "count", counter("campaign.warm_served"))
	L.set("sim.runs.ff", "count", counter("campaign.ff.runs"))
	L.set("sim.runs.forked", "count", counter("campaign.forked_runs"))
	L.set("sim.runs.cold", "count", counter("campaign.cold_runs"))
	L.set("sim.ff_early_stops", "count", counter("campaign.ff.early_stops"))
	skipped := 0.0
	if h := reg.HistogramByName("campaign.ff.skipped_instrs"); h != nil {
		skipped = h.Sum()
	}
	L.set("sim.ff_skipped_instrs", "instrs", skipped)
	L.set("sim.early_stop_frac", "ratio", safeDiv(counter("campaign.ff.early_stops"), counter("campaign.runs")))
	L.set("sim.cycles_total", "cycles", float64(cycles))
	L.set("runcache.hits", "count", 0)
	L.set("runcache.misses", "count", 0)
	L.set("runcache.hit_ratio", "ratio", 0)
	L.set("parallel.busy_frac", "ratio", busyFrac(tr.Spans(), "sim.CampaignProgram", campaignParallel))

	// Per-path run cost at Parallel=1, and the fast-forward handoff points
	// from the campaign journal.
	handoffs := map[*isa.Program][]uint64{}
	pathMS := map[string][]float64{}
	var warmups []float64
	for _, i := range round {
		c := s.cells[i]
		jpath := filepath.Join(work, fmt.Sprintf("cell-%d.journal", i))
		var r cellRun
		tr.Time(0, "sim.CampaignProgram.serial", c.Name(), func() {
			r = s.runCell(i, runOpts{parallel: 1, journal: jpath})
		})
		check(i, r, plain[i].digest)
		points, err := journalHandoffs(jpath)
		if err != nil {
			return nil, err
		}
		handoffs[s.progs[i]] = append(handoffs[s.progs[i]], points...)
		cfg := cellConfig(c, workload == workloadSampled, 1)
		var pl *sim.CampaignPlan
		var perr error
		id := tr.Time(0, "sim.NewCampaignPlan", c.Name(), func() { pl, perr = sim.NewCampaignPlan(cfg, s.progs[i], s.sites[i], injectOpts) })
		if perr != nil {
			return nil, perr
		}
		warmups = append(warmups, spanMS(tr, id))
		if workload != workloadSampled {
			// The all-cold path never builds a plan: a run's cost is the
			// serial campaign's wall time per run.
			pathMS["cold"] = append(pathMS["cold"], ms(r.dur)/float64(len(s.sites[i])))
			continue
		}
		for k := range s.sites[i] {
			var ierr error
			id := tr.Time(0, "sim.CampaignPlan.Inject."+r.served[k], c.Name(), func() { _, ierr = pl.Inject(k) })
			if ierr != nil {
				return nil, ierr
			}
			pathMS[r.served[k]] = append(pathMS[r.served[k]], spanMS(tr, id))
		}
	}
	L.set("sim.plan_warmup_ms", "ms", mean(warmups))
	for _, p := range pathNames {
		L.set("sim.run_ms."+p.short, "ms", mean(pathMS[p.served]))
	}
	L.set("serve.submit_ms", "ms", 0)
	L.set("serve.queue_wait_ms", "ms", 0)
	L.set("serve.run_ms", "ms", 0)
	L.set("serve.overhead_ms", "ms", 0)

	var probes []probe
	var cells []Cell
	seen := map[*isa.Program]bool{}
	for _, i := range round {
		cells = append(cells, s.cells[i])
		if !seen[s.progs[i]] {
			seen[s.progs[i]] = true
			probes = append(probes, probe{prog: s.progs[i], mode: s.cells[i].Mode, budget: Budget, sites: s.sites[i]})
		}
	}
	var records []sim.InjectionResult
	var groups []string
	for _, i := range round {
		if r := traced[i]; r.err == nil {
			for range r.sum.Results {
				groups = append(groups, s.cells[i].Name())
			}
			records = append(records, r.sum.Results...)
		}
	}
	if err := layerTimings(L, tr, probes, handoffs, records, groups, work); err != nil {
		return nil, err
	}
	L.set("prog.generate_ms", "ms", generateMS(cells))
	res.Metrics = L
	return res, writeTrace(tr, workdir, workload, seed)
}

// busyFrac is the summed length of the children of every parent span
// named parent, divided by the parents' summed length times workers: the
// share of worker time spent in runs.
func busyFrac(spans []Span, parent string, workers int) float64 {
	parents := map[int]bool{}
	var wall, busy time.Duration
	for _, sp := range spans {
		if sp.Name == parent {
			parents[sp.ID] = true
			wall += sp.Dur()
		}
	}
	for _, sp := range spans {
		if parents[sp.Parent] {
			busy += sp.Dur()
		}
	}
	return safeDiv(busy.Seconds(), wall.Seconds()*float64(workers))
}

// journalHandoffs reads the fast-forward handoff instruction of every
// fast-forwarded run from a campaign journal (none for other paths).
func journalHandoffs(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // header
		}
		var line struct {
			R struct {
				Path      string `json:"path"`
				FFSkipped uint64 `json:"ff_skipped"`
			} `json:"r"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.R.Path == "fast-forward" {
			out = append(out, line.R.FFSkipped)
		}
	}
	return out, sc.Err()
}

// layerTimings times the layers' entry points in isolation on the
// workload's own probes and records: golden emulator, trajectory, pipeline
// (with stage shares from a CPU profile, allocations and fork cost), run
// cache and journal.
func layerTimings(L layers, tr *Tracer, probes []probe, handoffs map[*isa.Program][]uint64, records []sim.InjectionResult, groups []string, work string) error {
	golden := map[*isa.Program]float64{}
	var goldenAll []float64
	for _, p := range probes {
		if _, ok := golden[p.prog]; ok {
			continue
		}
		var per []float64
		repeat(5, 200*time.Millisecond, func() {
			m, err := isa.NewMachine(p.prog)
			if err != nil {
				return
			}
			var n int
			id := tr.Time(0, "isa.Machine.Run", p.prog.Name, func() { n = m.Run(p.budget) })
			per = append(per, spanNS(tr, id)/float64(max(n, 1)))
		})
		golden[p.prog] = median(per)
		goldenAll = append(goldenAll, golden[p.prog])
	}
	L.set("isa.golden_ns_per_instr", "ns/instr", mean(goldenAll))

	// Trajectory rewinds at the plan's handoff points; workloads without
	// fast-forwarded runs rewind to the budget, where every cold run's
	// classification reads the golden signature.
	var traj []float64
	for _, p := range probes {
		points := handoffs[p.prog]
		if len(points) == 0 {
			points = []uint64{uint64(p.budget)}
		}
		for _, k := range points {
			id := tr.Time(0, "isa.Trajectory.At", p.prog.Name, func() { isa.NewTrajectory(p.prog).At(k) })
			traj = append(traj, spanMS(tr, id))
		}
	}
	L.set("isa.trajectory_ms", "ms", mean(traj))

	// Pipeline throughput per mode under one CPU profile.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	perMode := map[pipeline.Mode][2][]float64{}
	for _, p := range probes {
		cfg := pipeline.DefaultConfig()
		repeat(3, time.Second, func() {
			m, err := pipeline.New(cfg, p.mode, p.prog)
			if err != nil {
				return
			}
			var st *pipeline.Stats
			id := tr.Time(0, "pipeline.Machine.Run", p.prog.Name+"/"+p.mode.String(), func() { st = m.Run(p.budget) })
			ns := spanNS(tr, id)
			v := perMode[p.mode]
			v[0] = append(v[0], ns/float64(max(st.Committed[0], 1))/golden[p.prog])
			v[1] = append(v[1], ns/float64(max(st.Cycles, 1)))
			perMode[p.mode] = v
		})
	}
	pprof.StopCPUProfile()
	for _, p := range probes {
		v := perMode[p.mode]
		L.set("pipeline.over_golden."+p.mode.String(), "ratio", median(v[0]))
		L.set("pipeline.ns_per_instr."+p.mode.String(), "ns/instr", median(v[0])*golden[p.prog])
		L.set("pipeline.ns_per_cycle."+p.mode.String(), "ns/cycle", median(v[1]))
	}
	shares, samples, err := StageShares(prof.Bytes())
	if err != nil {
		return err
	}
	logf("pipeline stage shares from %d CPU-profile samples", samples)
	for _, st := range stages {
		L.set("pipeline.stage_share."+st, "ratio", shares[st])
	}

	// Allocations per thousand committed instructions, and fork cost
	// (Snapshot + Fork of a machine in flight), on the first probe.
	p := probes[0]
	cfg := pipeline.DefaultConfig()
	var before, after runtime.MemStats
	m, err := pipeline.New(cfg, p.mode, p.prog)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&before)
	st := m.Run(p.budget)
	runtime.ReadMemStats(&after)
	L.set("pipeline.allocs_per_kinstr", "allocs/kinstr", float64(after.Mallocs-before.Mallocs)/(float64(max(st.Committed[0], 1))/1000))

	var forks []float64
	m, err = pipeline.New(cfg, p.mode, p.prog)
	if err != nil {
		return err
	}
	m.RunWithCheckpoints(p.budget, sampledInterval, func(live *pipeline.Machine) {
		if len(forks) > 0 {
			return
		}
		for k := 0; k < 20; k++ {
			id := tr.Time(0, "pipeline.Fork", p.prog.Name, func() { pipeline.Fork(live.Snapshot()) })
			forks = append(forks, spanNS(tr, id)/1e3)
		}
	})
	L.set("pipeline.fork_us", "us", median(forks))

	return storageTimings(L, tr, records, groups, work)
}

// storageTimings times runcache Get/Put and journal Append on the
// workload's own run records.
func storageTimings(L layers, tr *Tracer, records []sim.InjectionResult, groups []string, work string) error {
	store, err := runcache.Open(filepath.Join(work, "micro-cache"), 0)
	if err != nil {
		return err
	}
	var put, hit, miss []float64
	for k, r := range records {
		id := runcache.NewIdentity("bjbench").Add("group", groups[k]).AddJSON("site", r.Site).Addf("k", "%d", k)
		sp := tr.Time(0, "runcache.Store.Put", groups[k], func() { err = store.Put(id, r) })
		if err != nil {
			return err
		}
		put = append(put, spanNS(tr, sp)/1e3)
		var got sim.InjectionResult
		sp = tr.Time(0, "runcache.Store.Get", groups[k], func() { store.Get(id, &got) })
		hit = append(hit, spanNS(tr, sp)/1e3)
		absent := runcache.NewIdentity("bjbench").Add("group", groups[k]).AddJSON("site", r.Site).Addf("k", "%d", k).Add("absent", "1")
		sp = tr.Time(0, "runcache.Store.Get", groups[k], func() { store.Get(absent, &got) })
		miss = append(miss, spanNS(tr, sp)/1e3)
	}
	L.set("runcache.put_us", "us", median(put))
	L.set("runcache.get_hit_us", "us", median(hit))
	L.set("runcache.get_miss_us", "us", median(miss))

	appendUS := func(name string, syncEvery int) ([]float64, error) {
		j, _, err := journal.Open[sim.InjectionResult](filepath.Join(work, name), journal.Header{Kind: "bjbench", Key: journal.KeyHash(name), Version: 1})
		if err != nil {
			return nil, err
		}
		defer j.Close()
		if syncEvery > 0 {
			j.SetSyncEvery(syncEvery)
		}
		var out []float64
		for k, r := range records {
			var aerr error
			sp := tr.Time(0, "journal.Append", name, func() { aerr = j.Append(k, r) })
			if aerr != nil {
				return nil, aerr
			}
			out = append(out, spanNS(tr, sp)/1e3)
		}
		return out, nil
	}
	fsync, err := appendUS("fsync.journal", 1)
	if err != nil {
		return err
	}
	batched, err := appendUS("batched.journal", 0)
	if err != nil {
		return err
	}
	L.set("journal.append_fsync_us", "us", median(fsync))
	L.set("journal.append_batched_us", "us", mean(batched)) // amortized over its periodic fsyncs
	return nil
}

// generateMS is the median prog.SeededBenchmark time per distinct program
// of the cells, averaged over the programs.
func generateMS(cells []Cell) float64 {
	var per []float64
	seen := map[string]bool{}
	for _, c := range cells {
		key := fmt.Sprintf("%s#%d", c.Bench, c.Offset)
		if seen[key] {
			continue
		}
		seen[key] = true
		var ts []float64
		for k := 0; k < setupRepeats; k++ {
			t := time.Now()
			prog.SeededBenchmark(c.Bench, c.Offset)
			ts = append(ts, ms(time.Since(t)))
		}
		per = append(per, median(ts))
	}
	return mean(per)
}

// repeat calls fn at least reps times and until minDur has passed.
func repeat(reps int, minDur time.Duration, fn func()) {
	start := time.Now()
	for k := 0; k < reps || time.Since(start) < minDur; k++ {
		fn()
	}
}

// writeTrace writes the spans as Chrome trace-event JSON under workdir and
// logs the per-name span summary with self times.
func writeTrace(tr *Tracer, workdir, workload string, seed uint64) error {
	for _, s := range Summarize(tr.Spans()) {
		logf("span %-36s n=%-5d total=%10.3fms self=%10.3fms", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	logf("trace written to %s (open in ui.perfetto.dev)", path)
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spanMS and spanNS read back a recorded span's length.
func spanMS(tr *Tracer, id int) float64 { return spanNS(tr, id) / 1e6 }

func spanNS(tr *Tracer, id int) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return float64(tr.spans[id-1].Dur().Nanoseconds())
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceServe is the traced run of serve-mixed: the first serveTracedJobs
// jobs, once untraced and once traced, each on a fresh server; the batch
// tables of the same campaigns at Parallel=1 (the result check, and the
// base of serve.overhead_ms); then the layer timings on the jobs' cells.
func traceServe(seed uint64, workdir, work string) (*Result, error) {
	tr := NewTracer()
	L := layers{}
	jobs := ServeJobs(seed, serveTracedJobs)

	pass := func(name string, t *Tracer) ([]jobOutcome, time.Duration, *obs.Registry, error) {
		var s *server
		var err error
		t.Time(0, "serve.New", name, func() { s, err = startServer(filepath.Join(work, name)) })
		if err != nil {
			return nil, 0, nil, err
		}
		outs, wall := s.loop(jobs, 0, len(jobs), 0, len(jobs))
		reg := s.srv.Metrics()
		s.stop()
		return outs, wall, reg, nil
	}
	plainOuts, plainWall, _, err := pass("untraced", nil)
	if err != nil {
		return nil, err
	}
	outs, wall, reg, err := pass("traced", tr)
	if err != nil {
		return nil, err
	}
	runsOf := func(os []jobOutcome) (n int) {
		for _, o := range os {
			n += o.runs
		}
		return n
	}
	L.set("trace.overhead", "ratio", safeDiv(float64(runsOf(outs))/wall.Seconds(), float64(runsOf(plainOuts))/plainWall.Seconds()))

	var submit, queue, run []float64
	served := map[string]float64{}
	var busy time.Duration
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		key := jobs[o.index].Key()
		parent := tr.Add(0, "serve.job", key, o.submit[0], o.stream)
		tr.Add(parent, "serve.submit", key, o.submit[0], o.submit[1])
		q, r, d := o.states["queued"], o.states["running"], o.states["done"]
		tr.Add(parent, "serve.queue", key, q, r)
		tr.Add(parent, "serve.run", key, r, d)
		tr.Add(0, "serve.result", key, o.fetched[0], o.fetched[1])
		submit = append(submit, ms(o.submit[1].Sub(o.submit[0])))
		queue = append(queue, ms(r.Sub(q)))
		run = append(run, ms(d.Sub(r)))
		busy += d.Sub(r)
		for k, v := range o.served {
			served[k] += float64(v)
		}
	}
	L.set("serve.submit_ms", "ms", median(submit))
	L.set("serve.queue_wait_ms", "ms", median(queue))
	L.set("serve.run_ms", "ms", median(run))
	L.set("parallel.busy_frac", "ratio", safeDiv(busy.Seconds(), wall.Seconds()*serveWorkers))

	tables, batchTimes, batchCycles, err := batchTables(jobs, append(append([]jobOutcome(nil), plainOuts...), outs...), 1, tr)
	if err != nil {
		return nil, err
	}
	res := &Result{Attempted: len(plainOuts) + len(outs)}
	res.Failed = checkOutcomes(jobs, plainOuts, tables) + checkOutcomes(jobs, outs, tables)
	res.Failed += 2*len(jobs) - res.Attempted
	res.Attempted = max(res.Attempted, 2*len(jobs))

	// serve.overhead_ms: a fresh job's service run time minus the same
	// campaign in batch.
	var overhead []float64
	var cycles int64
	for _, o := range outs {
		j := jobs[o.index]
		if o.err == nil && j.Source < 0 {
			overhead = append(overhead, ms(o.states["done"].Sub(o.states["running"])-batchTimes[j.Key()]))
		}
	}
	for _, c := range batchCycles {
		cycles += c
	}
	L.set("serve.overhead_ms", "ms", mean(overhead))

	// Path counts from the event stream: the service runs every campaign on
	// the all-cold path, and serves repeats from the run cache.
	for _, p := range pathNames {
		L.set("sim.runs."+p.short, "count", served[p.served])
	}
	L.set("sim.ff_early_stops", "count", 0)
	L.set("sim.ff_skipped_instrs", "instrs", 0)
	L.set("sim.early_stop_frac", "ratio", 0)
	L.set("sim.cycles_total", "cycles", float64(cycles))
	hits, misses := float64(reg.Counter("runcache.hits").Value()), float64(reg.Counter("runcache.misses").Value())
	L.set("runcache.hits", "count", hits)
	L.set("runcache.misses", "count", misses)
	L.set("runcache.hit_ratio", "ratio", safeDiv(hits, hits+misses))

	// Layer timings on the fresh cells: one probe per mode the pipeline
	// metrics name, plus the plan warmup and per-run cost on each.
	var probes []probe
	var cells []Cell
	var records []sim.InjectionResult
	var groups []string
	for _, mode := range []string{"srt", "blackjack"} {
		for _, j := range jobs {
			if j.Source >= 0 || j.Mode != mode {
				continue
			}
			p, err := prog.Benchmark(j.Benchmark)
			if err != nil {
				return nil, err
			}
			m, _ := pipeline.ParseMode(j.Mode)
			kind, err := fault.ParseKind(j.FaultKind)
			if err != nil {
				return nil, err
			}
			cfg := sim.Default(m, j.Instructions)
			sites, err := sim.SitesForKind(cfg.Machine, kind)
			if err != nil {
				return nil, err
			}
			probes = append(probes, probe{prog: p, mode: m, budget: j.Instructions, sites: sites})
			cells = append(cells, Cell{Bench: j.Benchmark})
			break
		}
	}
	var warmups, cold []float64
	for _, p := range probes {
		cfg := sim.Default(p.mode, p.budget)
		cfg.Parallel = 1
		var perr error
		id := tr.Time(0, "sim.NewCampaignPlan", p.prog.Name, func() { _, perr = sim.NewCampaignPlan(cfg, p.prog, p.sites, injectOpts) })
		if perr != nil {
			return nil, perr
		}
		warmups = append(warmups, spanMS(tr, id))
		var sum *sim.CampaignSummary
		id = tr.Time(0, "sim.CampaignProgram.serial", p.prog.Name, func() { sum, perr = sim.CampaignProgram(cfg, p.prog, p.sites, injectOpts) })
		if perr != nil {
			return nil, perr
		}
		cold = append(cold, spanMS(tr, id)/float64(len(p.sites)))
		records = append(records, sum.Results...)
		for range sum.Results {
			groups = append(groups, p.prog.Name+"/"+p.mode.String())
		}
	}
	L.set("sim.plan_warmup_ms", "ms", mean(warmups))
	for _, p := range pathNames {
		L.set("sim.run_ms."+p.short, "ms", 0)
	}
	L.set("sim.run_ms.cold", "ms", mean(cold))
	if err := layerTimings(L, tr, probes, nil, records, groups, work); err != nil {
		return nil, err
	}
	L.set("prog.generate_ms", "ms", generateMS(cells))
	res.Metrics = L
	return res, writeTrace(tr, workdir, workloadServeMixed, seed)
}
