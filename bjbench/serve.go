package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blackjack"
	"blackjack/internal/serve"
)

// serve-mixed shape: executor slots, runs in flight per job, closed-loop
// clients, and the minimum number of measured p90 windows. One slot running
// each campaign two runs wide keeps both CPUs busy whichever jobs the two
// clients happen to have in flight; with two one-wide slots, throughput
// swung with whether two fresh jobs overlapped.
const (
	serveWorkers     = 1
	serveRunParallel = 2
	serveClients     = 2
	serveMinWindows  = 2
	// p90Rounds is how many rounds one job_p90_ms sample spans: four rounds
	// of 32 jobs leave twelve beyond its p90.
	p90Rounds = 4
	// serveMaxJobs bounds the generated sequence; a run never gets near it.
	serveMaxJobs = 4096
	// serveHardStop ends a run that cannot measure serveMinWindows in time.
	serveHardStop = 90 * time.Second
	// jobTimeout fails a request that hangs; a job takes well under a
	// second.
	jobTimeout = 60 * time.Second
)

// server is one in-process campaign service behind its real HTTP handler on
// a loopback listener, with a fresh state and cache directory.
type server struct {
	dir  string
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
	url  string
	done chan struct{}
}

// startServer creates the state and cache directories under dir and starts
// the service and its listener.
func startServer(dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{
		StateDir:    filepath.Join(dir, "state"),
		CacheDir:    filepath.Join(dir, "cache"),
		Workers:     serveWorkers,
		RunParallel: serveRunParallel,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	s := &server{dir: dir, srv: srv, ln: ln, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.http = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop drains the service, closes the listener and waits for the HTTP
// server to return, then removes the directories.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx)
	s.http.Shutdown(ctx)
	<-s.done
	os.RemoveAll(s.dir)
}

// jobOutcome is what one client observed for one job.
type jobOutcome struct {
	index   int
	err     error // transport error, rejection, or a non-done end state
	result  []byte
	runs    int
	submit  [2]time.Time // POST round trip
	stream  time.Time    // end of the event stream
	states  map[serve.State]time.Time
	served  map[string]int // runs by the path that produced them
	fetched [2]time.Time   // GET /result round trip
}

// latency is the user-visible job time: POST start to end of stream.
func (o *jobOutcome) latency() time.Duration { return o.stream.Sub(o.submit[0]) }

// client is a closed-loop submitter: it sends a job, follows its event
// stream to the end, fetches the result, and only then takes the next job.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
	}}
}

// run drives one job through the API. A job that fails before its stream
// ends is stamped as ended when it failed.
func (c *client) run(index int, j JobSpec) (o jobOutcome) {
	o = jobOutcome{index: index, states: map[serve.State]time.Time{}, served: map[string]int{}}
	defer func() {
		if o.stream.IsZero() {
			o.stream = time.Now()
		}
	}()
	body, _ := json.Marshal(j)
	o.submit[0] = time.Now()
	resp, err := c.http.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var job struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	o.submit[1] = time.Now()
	if resp.StatusCode != http.StatusCreated || derr != nil {
		o.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return o
	}

	resp, err = c.http.Get(c.base + "/api/v1/jobs/" + job.ID + "/events")
	if err != nil {
		o.err = err
		return o
	}
	var last serve.State
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var e serve.Event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		switch e.Kind {
		case "state":
			o.states[e.State] = e.At
			last = e.State
		case "run":
			o.served[e.Served]++
			o.runs++
		}
	}
	resp.Body.Close()
	o.stream = time.Now()
	if last != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %q", job.ID, last)
		return o
	}

	o.fetched[0] = time.Now()
	resp, err = c.http.Get(c.base + "/api/v1/jobs/" + job.ID + "/result")
	if err != nil {
		o.err = err
		return o
	}
	o.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.fetched[1] = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("result: HTTP %d %v", resp.StatusCode, err)
	}
	return o
}

// loop runs the closed loop over jobs[lo:hi] with serveClients clients;
// every job before lo has finished. Clients stop taking jobs at the first
// round boundary (every ServeRound jobs) at which the window has passed and
// at least minJobs jobs were taken, or when jobs run out. A repeat waits for
// its source job to finish before it is sent. It returns the outcomes in
// completion order and the loop's wall time.
func (s *server) loop(jobs []JobSpec, lo, hi int, window time.Duration, minJobs int) ([]jobOutcome, time.Duration) {
	finished := make([]chan struct{}, hi)
	for i := range finished {
		finished[i] = make(chan struct{})
		if i < lo {
			close(finished[i])
		}
	}
	var (
		mu    sync.Mutex
		next  = lo
		stop  bool
		outs  []jobOutcome
		wg    sync.WaitGroup
		start = time.Now()
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		if next%ServeRound == 0 && next-lo >= minJobs && el >= window || el >= serveHardStop {
			stop = true
		}
		if stop || next >= hi {
			return -1
		}
		next++
		return next - 1
	}
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.url)
			defer c.http.CloseIdleConnections()
			for i := take(); i >= 0; i = take() {
				if src := jobs[i].Source; src >= 0 {
					<-finished[src]
				}
				o := c.run(i, jobs[i])
				close(finished[i])
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// batchTables renders, for every distinct job identity among outs, the
// table the batch path prints for the same campaign: sim.CampaignProgram
// through the facade, without cache or journal. Each batch campaign is
// timed, and recorded as a span when tr is set.
func batchTables(jobs []JobSpec, outs []jobOutcome, parallel int, tr *Tracer) (map[string][]byte, map[string]time.Duration, map[string]int64, error) {
	tables := map[string][]byte{}
	times := map[string]time.Duration{}
	cycles := map[string]int64{}
	for _, o := range outs {
		j := jobs[o.index]
		if _, ok := tables[j.Key()]; ok {
			continue
		}
		mode, err := blackjack.ParseMode(j.Mode)
		if err != nil {
			return nil, nil, nil, err
		}
		kind, err := blackjack.ParseFaultKind(j.FaultKind)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := blackjack.DefaultConfig(mode, j.Instructions)
		cfg.Parallel = parallel
		sites, err := blackjack.FaultSitesForKind(cfg.Machine, kind)
		if err != nil {
			return nil, nil, nil, err
		}
		t := time.Now()
		sum, err := blackjack.Campaign(cfg, j.Benchmark, sites, blackjack.InjectOptions{SplitPayload: true})
		if err != nil {
			return nil, nil, nil, err
		}
		end := time.Now()
		tr.Add(0, "sim.CampaignProgram", j.Key(), t, end)
		times[j.Key()] = end.Sub(t)
		var buf bytes.Buffer
		blackjack.WriteCampaignTable(&buf, cfg.Mode, j.Benchmark, sum)
		tables[j.Key()] = buf.Bytes()
		for _, r := range sum.Results {
			cycles[j.Key()] += r.Cycles
		}
	}
	return tables, times, cycles, nil
}

// checkOutcomes counts failed jobs: transport errors, rejections, jobs that
// did not end done, and results that differ by one byte from the batch
// table of the same campaign.
func checkOutcomes(jobs []JobSpec, outs []jobOutcome, tables map[string][]byte) int {
	failed := 0
	for _, o := range outs {
		switch {
		case o.err != nil:
			failed++
			logf("check failed: job %d: %v", o.index, o.err)
		case !bytes.Equal(o.result, tables[jobs[o.index].Key()]):
			failed++
			logf("check failed: job %d (%s): result differs from the batch table", o.index, jobs[o.index].Key())
		}
	}
	return failed
}

// setupServe starts a fresh server under dir and generates the job
// sequence.
func setupServe(dir string, seed uint64) (*server, []JobSpec, error) {
	jobs := ServeJobs(seed, serveMaxJobs)
	s, err := startServer(dir)
	return s, jobs, err
}

// runServeWorkload is the untraced serve-mixed run: set-up, the warm-up
// round, whole measured rounds of the job sequence until the window has
// passed, the remaining set-up repeats, then the result checks over every
// job, warm-up included.
func runServeWorkload(seed uint64, window time.Duration, workdir string) (*Result, error) {
	var setups []float64
	setup := func() (*server, []JobSpec, error) {
		t := time.Now()
		s, jobs, err := setupServe(filepath.Join(workdir, fmt.Sprintf("serve-%d", len(setups))), seed)
		setups = append(setups, time.Since(t).Seconds())
		return s, jobs, err
	}
	s, jobs, err := setup()
	if err != nil {
		return nil, err
	}
	warm, _ := s.loop(jobs, 0, ServeRound, 0, ServeRound)
	minJobs := serveMinWindows * p90Rounds * ServeRound
	outs, _ := s.loop(jobs, ServeRound, len(jobs), window, minJobs)
	s.stop()
	for len(setups) < setupRepeats {
		s, _, err := setup()
		if err != nil {
			return nil, err
		}
		s.stop()
	}

	runsPerS, jobsPerS := rates(outs)
	p90s := windowP90s(outs)
	all := append(warm, outs...)
	tables, _, _, err := batchTables(jobs, all, campaignParallel, nil)
	if err != nil {
		return nil, err
	}
	failed := checkOutcomes(jobs, all, tables)
	if len(outs) < minJobs {
		logf("check failed: only %d measured jobs finished before the hard stop", len(outs))
		failed += minJobs - len(outs)
	}
	var lat []float64
	for _, o := range outs {
		if o.err == nil {
			lat = append(lat, ms(o.latency()))
		}
	}
	logLatency("measured job", lat)
	logf("job p90 by window of %d jobs: %.1f ms", p90Rounds*ServeRound, p90s)
	return &Result{Attempted: len(warm) + max(len(outs), minJobs), Failed: failed, Metrics: map[string]Metric{
		"setup_s":    {median(setups), "s"},
		"runs_per_s": {runsPerS, "runs/s"},
		"jobs_per_s": {jobsPerS, "jobs/s"},
		"job_p90_ms": {median(p90s), "ms"},
		"max_rss_mb": {maxRSSMiB(), "MiB"},
	}}, nil
}

// windowP90s cuts the measured jobs, by index, into windows of p90Rounds
// rounds from the first measured round, and returns the p90 job latency of
// each whole window. job_p90_ms is their median, so a burst of host noise
// during one window does not move it. A window with a failed job has no
// p90.
func windowP90s(outs []jobOutcome) []float64 {
	size := p90Rounds * ServeRound
	lat := map[int][]float64{}
	bad := map[int]bool{}
	for _, o := range outs {
		w := (o.index - ServeRound) / size
		if o.err != nil {
			bad[w] = true
			continue
		}
		lat[w] = append(lat[w], ms(o.latency()))
	}
	var p90s []float64
	for w := 0; w <= len(lat)+len(bad); w++ {
		if !bad[w] && len(lat[w]) == size {
			p90s = append(p90s, percentile(lat[w], 0.9))
		}
	}
	return p90s
}

// rates returns the runs and finished jobs per second over outs: from the
// first submit to the last end of stream. The measured rounds are whole, so
// every run covers the same work; a fresh job runs for over a second, so
// chunks of a round or two would each catch a different share of them.
func rates(outs []jobOutcome) (runsPerS, jobsPerS float64) {
	if len(outs) == 0 {
		return 0, 0
	}
	first, last := outs[0].submit[0], outs[0].stream
	runs, jobs := 0, 0
	for _, o := range outs {
		if o.submit[0].Before(first) {
			first = o.submit[0]
		}
		if o.stream.After(last) {
			last = o.stream
		}
		if o.err == nil {
			runs += o.runs
			jobs++
		}
	}
	el := last.Sub(first).Seconds()
	return float64(runs) / el, float64(jobs) / el
}
