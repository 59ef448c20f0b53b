// Command bjbench is the repository's benchmark. It runs one workload —
// campaign-full, campaign-kinds, campaign-sampled or serve-mixed —
// generated from --seed,
// measures it for --seconds, checks every output, and prints one JSON
// object as its last stdout line:
//
//	{"correct": true, "attempted": 816, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 it instead repeats the workload's fixed work
// through each layer's entry points, recording spans, and reports per-layer
// metrics; the spans are written as Chrome trace-event JSON under
// --workdir. Progress, host facts and failed checks go to stderr.
//
// Build and run it through run.sh from the root of a checkout; see
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median.
const setupRepeats = 11

func main() {
	var (
		workload = flag.String("workload", "", "campaign-full, campaign-kinds, campaign-sampled or serve-mixed")
		seed     = flag.Uint64("seed", DefaultSeed, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the measuring window")
		trace    = flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
		workdir  = flag.String("workdir", ".bench_build", "directory for state, caches and traces")
		update   = flag.Bool("update-digests", false, "rewrite digests.json from one round of every campaign workload at the default seed")
	)
	flag.Parse()
	work := filepath.Join(*workdir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	if *update {
		if err := updateDigests("digests.json"); err != nil {
			fatal(err)
		}
		return
	}
	logHost(work)
	window := time.Duration(*seconds) * time.Second
	var (
		res *Result
		err error
	)
	campaign := *workload == workloadFull || *workload == workloadKinds || *workload == workloadSampled
	switch {
	case *trace != 0 && campaign:
		res, err = traceCampaign(*workload, *seed, *workdir, work)
	case *trace != 0 && *workload == workloadServeMixed:
		res, err = traceServe(*seed, *workdir, work)
	case campaign:
		res, err = runCampaignWorkload(*workload, *seed, window)
	case *workload == workloadServeMixed:
		res, err = runServeWorkload(*seed, window, work)
	default:
		err = fmt.Errorf("unknown --workload %q (want %s, %s, %s or %s)", *workload, workloadFull, workloadKinds, workloadSampled, workloadServeMixed)
	}
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	res.Correct = res.Failed == 0
	logf("failed_frac = %.6f ratio (%d of %d operations)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.Metrics) {
		logf("%-32s %14.6f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bjbench:", err)
	os.Exit(1)
}

// logf writes one line of human-readable progress to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bjbench: "+format+"\n", args...)
}

// logLatency logs a latency distribution with its sample count, median and
// the highest percentile that has ten samples beyond it.
func logLatency(what string, ms []float64) {
	if p, v, ok := tailPercentile(ms); ok {
		logf("%s latency: n=%d p50=%.3fms p%g=%.3fms (highest percentile with %d samples beyond)", what, len(ms), percentile(ms, 0.5), 100*p, v, tailBeyond)
		return
	}
	logf("%s latency: n=%d p50=%.3fms (no percentile has %d samples beyond)", what, len(ms), percentile(ms, 0.5), tailBeyond)
}

// logHost logs the facts a result depends on: CPUs, GOMAXPROCS, the Go
// version, and the filesystem the state and cache directories live on
// (fsync latency differs by orders of magnitude between ext4 and tmpfs).
func logHost(dir string) {
	logf("host: nproc=%d GOMAXPROCS=%d go=%s fs=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// maxRSSMiB is the process's peak resident set size in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// updateDigests runs one round of every campaign workload at the default
// seed and rewrites the pinned table digests.
func updateDigests(path string) error {
	df := digestFile{Seed: DefaultSeed, Workloads: map[string]map[string]string{}}
	for _, w := range []string{workloadFull, workloadKinds, workloadSampled} {
		s, err := setupCampaign(w, DefaultSeed, nil)
		if err != nil {
			return err
		}
		var rs []cellRun
		for i := range s.cells {
			r := s.runCell(i, runOpts{parallel: campaignParallel})
			if r.err != nil {
				return r.err
			}
			rs = append(rs, r)
		}
		df.Workloads[w] = cellDigests(s, rs)
	}
	buf, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
