// Package blackjack is a cycle-level reproduction of "BlackJack: Hard Error
// Detection with Redundant Threads on SMT" (Schuchman & Vijaykumar, DSN
// 2007).
//
// BlackJack extends SRT — simultaneous redundant threading, a soft-error
// technique — so that the redundant leading/trailing threads running on one
// SMT core also detect hard (permanent) errors. The key mechanism is
// safe-shuffle: the leading thread's co-issued instruction packets are
// shuffled, using dependence information the leading thread has already
// computed, so that every trailing instruction is fetched to a different
// frontend way and issued to a different backend way than its leading copy
// (spatial diversity). Commit-time checks validate the borrowed dependence
// and program-order information so a corrupted borrow cannot hide an error.
//
// The package exposes:
//
//   - four machine configurations (ModeSingle, ModeSRT, ModeBlackJackNS,
//     ModeBlackJack) over a detailed out-of-order SMT core;
//   - the 16-benchmark synthetic workload suite standing in for the paper's
//     SPEC2000 setup, plus a builder and generator for custom workloads;
//   - hard-fault injection with outcome classification against a functional
//     golden model;
//   - experiment harnesses regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	res, err := blackjack.Run(blackjack.DefaultConfig(blackjack.ModeBlackJack, 100_000), "gzip")
//	fmt.Printf("coverage %.1f%%\n", 100*res.Stats.Coverage())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package blackjack

import (
	"io"

	"blackjack/internal/calib"
	"blackjack/internal/detect"
	"blackjack/internal/diffcheck"
	"blackjack/internal/experiments"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// Machine configuration and modes.
type (
	// Mode selects the machine configuration (single / SRT / BlackJack-NS /
	// BlackJack).
	Mode = pipeline.Mode
	// MachineConfig holds every core parameter (Table 1 defaults via
	// DefaultMachineConfig).
	MachineConfig = pipeline.Config
	// Stats are the measurements a run produces.
	Stats = pipeline.Stats
)

// The four machine configurations of the paper's evaluation.
const (
	ModeSingle      = pipeline.ModeSingle
	ModeSRT         = pipeline.ModeSRT
	ModeBlackJackNS = pipeline.ModeBlackJackNS
	ModeBlackJack   = pipeline.ModeBlackJack
)

// DefaultMachineConfig returns the paper's Table 1 machine.
func DefaultMachineConfig() MachineConfig { return pipeline.DefaultConfig() }

// ParseMode resolves a mode name ("single", "srt", "blackjack-ns",
// "blackjack").
func ParseMode(s string) (Mode, error) { return pipeline.ParseMode(s) }

// Simulation entry points.
type (
	// Config describes one simulation (machine + mode + instruction budget).
	Config = sim.Config
	// Result is one simulation's outcome, validated against the golden
	// model.
	Result = sim.Result
)

// DefaultConfig returns a Table 1 machine in the given mode with the given
// leading-thread instruction budget.
func DefaultConfig(mode Mode, maxInstructions int) Config {
	return sim.Default(mode, maxInstructions)
}

// Run executes one built-in benchmark.
func Run(cfg Config, benchmark string) (*Result, error) { return sim.Run(cfg, benchmark) }

// RunProgram executes a custom program.
func RunProgram(cfg Config, p *Program) (*Result, error) { return sim.RunProgram(cfg, p) }

// FastForwardWarmup is the fast-forward warmup lead in committed
// instructions: sampled runs simulate this many instructions
// cycle-accurately before the activation window.
const FastForwardWarmup = sim.FastForwardWarmup

// RunSampled executes a benchmark with a functional fast-forward: the
// golden ISA emulator retires the first skip instructions, and the
// cycle-accurate pipeline simulates only the rest from that architectural
// state. Output verification stays whole-program; Stats.Cycles covers the
// simulated window only.
func RunSampled(cfg Config, benchmark string, skip int) (*Result, error) {
	return sim.RunSampled(cfg, benchmark, skip)
}

// RunAllModes runs a benchmark under all four modes with the same budget.
func RunAllModes(machine MachineConfig, benchmark string, maxInstructions int) (map[Mode]*Result, error) {
	return sim.RunAllModes(machine, benchmark, maxInstructions)
}

// Workloads.
type (
	// Program is an executable workload.
	Program = isa.Program
	// WorkloadProfile parameterizes the synthetic workload generator.
	WorkloadProfile = prog.Profile
	// Builder assembles hand-written programs.
	Builder = prog.Builder
)

// Benchmarks returns the built-in suite's names in the paper's Figure 7
// order (increasing IPC).
func Benchmarks() []string { return prog.BenchmarkNames() }

// BenchmarkProfile returns the named built-in workload profile.
func BenchmarkProfile(name string) (WorkloadProfile, error) { return prog.ProfileByName(name) }

// GenerateWorkload builds a synthetic program from a profile.
func GenerateWorkload(p WorkloadProfile) (*Program, error) { return prog.Generate(p) }

// BenchmarkProgram generates the named built-in workload.
func BenchmarkProgram(name string) (*Program, error) { return prog.Benchmark(name) }

// NewBuilder starts a hand-written program.
func NewBuilder(name string) *Builder { return prog.NewBuilder(name) }

// Fault injection.
type (
	// FaultSite is one hard fault bound to a physical resource.
	FaultSite = fault.Site
	// InjectionResult classifies one fault run.
	InjectionResult = sim.InjectionResult
	// InjectOptions tune a fault run.
	InjectOptions = sim.InjectOptions
	// CampaignSummary aggregates a multi-site campaign.
	CampaignSummary = sim.CampaignSummary
	// Outcome classifies a fault run (detected / silent / benign / wedged).
	Outcome = sim.Outcome
	// DetectionEvent is one redundancy-check firing.
	DetectionEvent = detect.Event
)

// Fault site classes.
const (
	FaultFrontendWay  = fault.FrontendWay
	FaultBackendWay   = fault.BackendWay
	FaultPayloadRAM   = fault.PayloadRAM
	FaultRegisterFile = fault.RegisterFile
)

// Fault-kind taxonomy.
type (
	// FaultKind selects a fault's temporal/spatial model: always-on
	// permanent, one-shot transient, duty-cycled intermittent, multi-bit
	// stuck-at/flip patterns, or control-flow errors corrupting branch
	// redirects.
	FaultKind = fault.Kind
	// FaultSiteError is the typed validation error FaultSite.Validate and
	// campaign admission return for contradictory site descriptions.
	FaultSiteError = fault.SiteError
)

// The fault kinds a FaultSite can model.
const (
	FaultKindPermanent    = fault.KindPermanent
	FaultKindTransient    = fault.KindTransient
	FaultKindIntermittent = fault.KindIntermittent
	FaultKindMultiBit     = fault.KindMultiBit
	FaultKindControlFlow  = fault.KindControlFlow
)

// FaultKinds lists every fault kind in declaration order.
func FaultKinds() []FaultKind { return fault.Kinds() }

// ParseFaultKind resolves a fault-kind name ("permanent", "transient",
// "intermittent", "multi-bit", "control-flow").
func ParseFaultKind(s string) (FaultKind, error) { return fault.ParseKind(s) }

// ValidateFaultSites rejects contradictory site descriptions with a
// *FaultSiteError before any simulation runs; campaign entry points call it
// at admission.
func ValidateFaultSites(sites []FaultSite) error { return fault.ValidateSites(sites) }

// Fault run outcomes.
const (
	OutcomeBenign      = sim.OutcomeBenign
	OutcomeDetected    = sim.OutcomeDetected
	OutcomeSilent      = sim.OutcomeSilent
	OutcomeWedged      = sim.OutcomeWedged
	OutcomeQuarantined = sim.OutcomeQuarantined
)

// Resilience and crash recovery.
type (
	// Resilience tunes per-run isolation, wall-clock budgets, retries and
	// the hung-worker watchdog of campaign entry points. Attach via
	// Config.Resilience.
	Resilience = sim.Resilience
	// RunFailure describes one quarantined campaign run, including the
	// command that reproduces it standalone.
	RunFailure = sim.RunFailure
	// CampaignJournal is the durable completed-run log of a fault campaign;
	// attach via Config.Journal to make the campaign crash-resumable.
	CampaignJournal = sim.CampaignJournal
	// FuzzJournal is the durable completed-program log of a fuzz session;
	// attach via FuzzOptions.Journal.
	FuzzJournal = diffcheck.FuzzJournal
	// DeadlockError is returned by single-run entry points when the machine
	// wedges before exhausting its instruction budget.
	DeadlockError = sim.DeadlockError
	// InterruptedError is returned when a run is stopped by its context or
	// per-run wall-clock budget.
	InterruptedError = sim.InterruptedError
)

// OpenCampaignJournal opens (creating or resuming) the campaign journal at
// path. The header key binds it to the exact campaign identity; resuming
// with a different program, mode, budget or site list is refused.
func OpenCampaignJournal(path string, cfg Config, benchmark string, sites []FaultSite, opts InjectOptions) (*CampaignJournal, error) {
	return sim.OpenCampaignJournal(path, cfg, benchmark, sites, opts)
}

// OpenFuzzJournal opens (creating or resuming) the fuzz journal at path.
func OpenFuzzJournal(path string, opts FuzzOptions) (*FuzzJournal, error) {
	return diffcheck.OpenFuzzJournal(path, opts)
}

// Inject runs a benchmark with one hard fault installed.
func Inject(cfg Config, benchmark string, site FaultSite, opts InjectOptions) (InjectionResult, error) {
	return sim.Inject(cfg, benchmark, site, opts)
}

// InjectProgram runs a custom program with one hard fault installed.
func InjectProgram(cfg Config, p *Program, site FaultSite, opts InjectOptions) (InjectionResult, error) {
	return sim.InjectProgram(cfg, p, site, opts)
}

// Campaign injects every site into the same benchmark and summarizes.
func Campaign(cfg Config, benchmark string, sites []FaultSite, opts InjectOptions) (*CampaignSummary, error) {
	return sim.Campaign(cfg, benchmark, sites, opts)
}

// RunProgress is one completed campaign run as delivered to
// Config.OnProgress — the job-level progress hook campaign services stream
// events from.
type RunProgress = sim.RunProgress

// FormatInjectionResult renders one campaign row exactly as bjfault prints
// it (site, outcome, activations, first detection event).
func FormatInjectionResult(r InjectionResult) string { return sim.FormatInjectionResult(r) }

// WriteCampaignTable writes a campaign's outcome table — header, one row
// per site, summary — byte-identically to bjfault's stdout, so batch and
// served executions of the same work are diffable.
func WriteCampaignTable(w io.Writer, mode Mode, benchmark string, sum *CampaignSummary) error {
	return sim.WriteCampaignTable(w, mode, benchmark, sum)
}

// IsLatentCampaign reports whether sites is exactly the canonical 16-site
// latent campaign for the machine.
func IsLatentCampaign(machine MachineConfig, sites []FaultSite) bool {
	return sim.IsLatentCampaign(machine, sites)
}

// StandardFaultSites returns the canonical campaign for a machine: every
// frontend and backend way, payload slots and registers.
func StandardFaultSites(machine MachineConfig) []FaultSite { return sim.StandardSites(machine) }

// LatentFaultSites returns the 16-site latent-defect campaign: always-on
// faults plus late-arming transients and trigger-gated faults that may never
// activate — the workload shape Config.CheckpointInterval accelerates most.
func LatentFaultSites(machine MachineConfig) []FaultSite { return sim.LatentSites(machine) }

// FaultSitesForKind returns the canonical campaign for one fault kind — the
// per-kind axis the bjfault/bjfuzz -fault-kind flags and the Ext-I
// experiment iterate over.
func FaultSitesForKind(machine MachineConfig, kind FaultKind) ([]FaultSite, error) {
	return sim.SitesForKind(machine, kind)
}

// Differential verification (the bjfuzz harness).
type (
	// FuzzOptions configure a differential fuzzing campaign: random programs
	// cross-checked against the ISA golden model under every machine variant,
	// with structural safe-shuffle/DTQ invariants enforced during execution.
	FuzzOptions = diffcheck.FuzzOptions
	// FuzzSummary aggregates a campaign, including minimized failures.
	FuzzSummary = diffcheck.FuzzSummary
	// CoverageMatrixOptions configure the fault-coverage matrix.
	CoverageMatrixOptions = diffcheck.MatrixOptions
	// FaultCoverageMatrix asserts every fault class × pipeline structure is
	// exercised and detected (or explicitly benign).
	FaultCoverageMatrix = diffcheck.Matrix
)

// FuzzPrograms runs a differential fuzzing campaign.
func FuzzPrograms(opts FuzzOptions) (*FuzzSummary, error) { return diffcheck.Fuzz(opts) }

// CheckProgramAllModes differentially checks one program under every machine
// variant against the golden model and returns any divergences.
func CheckProgramAllModes(machine MachineConfig, p *Program, maxInstructions int) []string {
	rep := diffcheck.CheckProgram(machine, p, maxInstructions)
	var out []string
	for _, d := range rep.Divergences {
		out = append(out, d.String())
	}
	return out
}

// RunCoverageMatrix runs the fault-injection coverage matrix.
func RunCoverageMatrix(opts CoverageMatrixOptions) (*FaultCoverageMatrix, error) {
	return diffcheck.CoverageMatrix(opts)
}

// Run cache.
type (
	// RunCache is the on-disk content-addressable run cache: entries are
	// keyed by the full identity of a run (program content, machine
	// configuration, mode, budget, fault site, execution plan) and served
	// in place of re-execution. Attach via Config.Cache; tune sampled
	// re-verification of hits via Config.CacheVerify.
	RunCache = runcache.Store
	// RunCacheStats snapshots a cache's hit/miss/eviction counters.
	RunCacheStats = runcache.Stats
)

// CacheEnvDir is the environment variable that opts a machine into caching:
// when set, the CLIs default -cache-dir to its value.
const CacheEnvDir = runcache.EnvDir

// OpenRunCache opens (creating if needed) the run cache rooted at dir.
// maxBytes <= 0 selects the default size bound before LRU eviction.
func OpenRunCache(dir string, maxBytes int64) (*RunCache, error) {
	return runcache.Open(dir, maxBytes)
}

// DefaultCacheDir returns the environment opt-in cache directory ("" when
// the machine has not opted in via CacheEnvDir).
func DefaultCacheDir() string { return runcache.DefaultDir() }

// Observability.
type (
	// Tracer records structured pipeline events into a fixed ring and exports
	// Chrome trace-event JSON (chrome://tracing, Perfetto). Attach via
	// Config.Trace.
	Tracer = obs.Tracer
	// Metrics is a counter/gauge/histogram registry with deterministic text
	// and JSON export. Attach via Config.Metrics.
	Metrics = obs.Registry
	// TraceKind tags a structured trace event.
	TraceKind = obs.Kind
)

// NewTracer returns a tracer holding the last capacity events (<= 0 uses the
// 65536-event default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteTraceFile writes a tracer's Chrome trace JSON to path.
func WriteTraceFile(path string, t *Tracer) error { return obs.WriteTraceFile(path, t) }

// WriteMetricsFile writes a registry's JSON snapshot to path.
func WriteMetricsFile(path string, r *Metrics) error { return obs.WriteMetricsFile(path, r) }

// Experiments.
type (
	// ExperimentOptions configure a full-suite experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentSuite holds all benchmarks' results under all modes and
	// derives every paper figure.
	ExperimentSuite = experiments.Suite
)

// DefaultExperimentOptions returns the standard experiment setup (all 16
// benchmarks, 300k instructions per run).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// RunExperimentSuite runs every benchmark under every mode.
func RunExperimentSuite(opts ExperimentOptions) (*ExperimentSuite, error) {
	return experiments.RunSuite(opts)
}

// Calibration: every paper claim as a typed, executable assertion
// (internal/calib).
type (
	// CalibClaim is one paper claim: metric key, paper value, tolerance
	// band.
	CalibClaim = calib.Claim
	// CalibSpec is a named set of claims.
	CalibSpec = calib.Spec
	// CalibReport is an evaluated spec with per-claim PASS/DRIFT/FAIL
	// verdicts and deterministic text/JSON rendering.
	CalibReport = calib.Report
	// CalibMeasurements maps metric keys to measured scalars.
	CalibMeasurements = calib.Measurements
	// CalibVerdict classifies one evaluated claim.
	CalibVerdict = calib.Verdict
)

// Calibration verdicts.
const (
	CalibPass  = calib.Pass
	CalibDrift = calib.Drift
	CalibFail  = calib.Fail
)

// PaperCalibrationSpec returns the executable form of the EXPERIMENTS.md
// paper-vs-measured comparison.
func PaperCalibrationSpec() CalibSpec { return calib.PaperSpec() }

// Calibrate runs the figure suite plus one metrics-attached representative
// run and evaluates the paper calibration spec.
func Calibrate(opts ExperimentOptions) (*CalibReport, error) { return experiments.Calibrate(opts) }
