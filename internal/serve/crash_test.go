package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blackjack"
	"blackjack/internal/journal"
)

// TestMain lets this test binary double as a real bjserve process: the
// crash test re-executes itself with SERVE_CRASH_STATE set, SIGKILLs the
// child mid-campaign, restarts it, and proves the job completes with the
// batch-identical table. A true SIGKILL (not a cooperative cancel) is the
// point: nothing gets to flush on the way down.
func TestMain(m *testing.M) {
	if dir := os.Getenv("SERVE_CRASH_STATE"); dir != "" {
		crashServerMain(dir, os.Getenv("SERVE_CRASH_ADDRFILE"))
		return
	}
	os.Exit(m.Run())
}

// crashServerMain is the child: a minimal bjserve (one executor slot, no
// cache) that writes its listen address for the parent and serves until
// killed.
func crashServerMain(stateDir, addrFile string) {
	s, err := New(Options{StateDir: stateDir, Workers: 1, RunParallel: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
	if err := journal.WriteFileAtomic(addrFile, []byte(ln.Addr().String())); err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
	s.Start()
	if err := (&http.Server{Handler: s.Handler()}).Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "crash server:", err)
		os.Exit(1)
	}
}

// spawnCrashServer starts the helper and waits for its address.
func spawnCrashServer(t *testing.T, stateDir string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"SERVE_CRASH_STATE="+stateDir,
		"SERVE_CRASH_ADDRFILE="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if buf, err := os.ReadFile(addrFile); err == nil && len(buf) > 0 {
			return cmd, string(buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("helper server never published its address")
	return nil, ""
}

// countRunEvents drains the non-blocking event feed and reports run events
// and how many were served from the journal.
func countRunEvents(t *testing.T, base, id string) (runs, fromJournal int) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/events?wait=false")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		if e.Kind == "run" {
			runs++
			if e.Served == "journal" {
				fromJournal++
			}
		}
	}
	return runs, fromJournal
}

// The acceptance criterion, end to end: SIGKILL the server mid-campaign,
// restart on the same state dir, and the job completes with an outcome
// table byte-identical to an uninterrupted batch run — with the completed
// prefix replayed from the journal, not re-simulated.
func TestSIGKILLMidCampaignResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	stateDir := t.TempDir()
	cmd1, addr := spawnCrashServer(t, stateDir)
	base := "http://" + addr

	// A 16-site campaign big enough to be mid-flight when the kill lands.
	spec := `{"benchmark": "gzip", "mode": "blackjack", "instructions": 60000, "sites": "latent", "parallel": 2, "cache": "off"}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()

	// Wait until some runs completed (journal has a prefix), then SIGKILL.
	deadline := time.Now().Add(60 * time.Second)
	progressed := 0
	for time.Now().Before(deadline) {
		progressed, _ = countRunEvents(t, base, job.ID)
		if progressed >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if progressed < 2 {
		cmd1.Process.Kill()
		t.Fatalf("campaign never progressed (%d runs)", progressed)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no flush, no drain
		t.Fatalf("kill: %v", err)
	}
	cmd1.Wait()
	if progressed >= 16 {
		t.Logf("note: campaign finished before the kill (%d runs); resume still exercised via journal replay", progressed)
	}

	// Restart on the same state dir: the job must resume and complete.
	cmd2, addr2 := spawnCrashServer(t, stateDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	base = "http://" + addr2
	deadline = time.Now().Add(120 * time.Second)
	var got Job
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/api/v1/jobs/" + job.ID)
		if err == nil {
			json.NewDecoder(r.Body).Decode(&got)
			r.Body.Close()
			if got.State == StateDone {
				break
			}
			if got.State == StateFailed || got.State == StateQuarantined {
				t.Fatalf("job %s after restart: %s (%s)", job.ID, got.State, got.Detail)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got.State != StateDone {
		t.Fatalf("job did not complete after restart: %+v", got)
	}

	// Journal replay, not re-simulation, must have covered the prefix.
	runs, fromJournal := countRunEvents(t, base, job.ID)
	if runs != 16 {
		t.Errorf("restart streamed %d run events, want 16", runs)
	}
	if fromJournal == 0 {
		t.Error("no runs served from the journal after restart; the completed prefix was re-simulated or lost")
	}

	r, err := http.Get(base + "/api/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	servedBytes := make([]byte, 0, 4096)
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		servedBytes = append(servedBytes, sc.Text()...)
		servedBytes = append(servedBytes, '\n')
	}
	r.Body.Close()

	// Reference: an uninterrupted batch run of exactly the same work.
	cfg := blackjack.DefaultConfig(blackjack.ModeBlackJack, 60000)
	cfg.Parallel = 2
	cfg.Resilience = blackjack.Resilience{Isolate: true, StallAfter: 30 * time.Second}
	sites := blackjack.LatentFaultSites(cfg.Machine)
	sum, err := blackjack.Campaign(cfg, "gzip", sites, blackjack.InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatalf("batch campaign: %v", err)
	}
	var want strings.Builder
	if err := blackjack.WriteCampaignTable(&want, cfg.Mode, "gzip", sum); err != nil {
		t.Fatalf("render: %v", err)
	}
	if string(servedBytes) != want.String() {
		t.Errorf("crash-resumed table differs from uninterrupted batch run:\n--- served ---\n%s--- batch ---\n%s",
			servedBytes, want.String())
	}
}

// Two servers on one state directory: the second must fail the job (journal
// flock), not interleave appends with the first. This drives the journal
// exclusivity satellite end to end.
func TestSecondServerCannotStealRunningJob(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	s1.Start()
	defer s1.Drain(context.Background())
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	j := submit(t, ts1, `{"benchmark": "gzip", "instructions": 300000, "sites": "latent", "parallel": 1, "cache": "off"}`)

	// Wait until the first server holds the journal.
	journalPath := filepath.Join(jobDir(dir, j.ID), "runs.journal")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(journalPath); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A second server over the same state dir requeues the "running" job,
	// but its executor must hit the flock and fail the attempt rather than
	// corrupt the journal.
	s2 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	s2.Start()
	defer s2.Drain(context.Background())
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j2, ok := s2.Job(j.ID)
		if ok && j2.State.terminal() {
			if j2.State == StateDone {
				t.Fatal("second server completed a job whose journal the first held")
			}
			if !strings.Contains(j2.Detail, "locked") {
				t.Errorf("failure detail %q does not surface the lock", j2.Detail)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("second server neither failed nor finished the contended job")
}
