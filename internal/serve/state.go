package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"blackjack/internal/journal"
)

// State is a job's position in its lifecycle. Transitions are append-only
// records in the job's state log, so the last intact record is the truth
// after any crash.
type State string

const (
	// StateQueued: admitted, waiting for an executor slot.
	StateQueued State = "queued"
	// StateRunning: an executor slot is simulating the job's runs.
	StateRunning State = "running"
	// StateDraining: the server is shutting down and the job is being
	// checkpointed; on restart a draining job is requeued.
	StateDraining State = "draining"
	// StateDone: completed; the rendered outcome table is in result.txt.
	StateDone State = "done"
	// StateFailed: exhausted its requeue budget on transient failures, or
	// failed at execution in a way admission could not catch.
	StateFailed State = "failed"
	// StateQuarantined: failed deterministically (same error across
	// attempts with budget to spare) — retrying would waste capacity.
	StateQuarantined State = "quarantined"
)

// terminal reports whether a state ends the job's lifecycle.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateQuarantined
}

// Transition is one persisted state change.
type Transition struct {
	State State `json:"state"`
	// At is the wall-clock transition time (RFC3339Nano).
	At time.Time `json:"at"`
	// Attempt counts executor attempts (0 before the first run).
	Attempt int `json:"attempt"`
	// Detail carries the human-readable reason for failed / quarantined /
	// requeued transitions.
	Detail string `json:"detail,omitempty"`
}

// Job is the in-memory view of one persisted job.
type Job struct {
	ID     string `json:"id"`
	Spec   *Spec  `json:"spec"`
	State  State  `json:"state"`
	Detail string `json:"detail,omitempty"`
	// Attempt is the number of executor attempts so far.
	Attempt int `json:"attempt"`
	// Submitted is the admission time.
	Submitted time.Time `json:"submitted"`
	// Updated is the latest transition time.
	Updated time.Time `json:"updated"`
	// Done counts completed runs (journal-replayed, cached, or live).
	Done int `json:"done"`
	// Total is the job's run count (0 until first planned).
	Total int `json:"total"`
}

// jobDir is the job's slice of the state directory:
//
//	jobs/<id>/spec.json     the admitted spec (atomic write, immutable)
//	jobs/<id>/state.jsonl   the job's state log: a journal of transitions
//	jobs/<id>/*.journal     campaign/fuzz run journals (crash-resumable)
//	jobs/<id>/result.txt    rendered outcome tables (atomic write)
func jobDir(stateDir, id string) string { return filepath.Join(stateDir, "jobs", id) }

// persistSpec writes the admitted spec once, atomically, so a crash never
// leaves a half-written spec.
func persistSpec(dir string, spec *Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return journal.WriteFileAtomic(filepath.Join(dir, "spec.json"), append(buf, '\n'))
}

// stateLogVersion is the state-log record schema version.
const stateLogVersion = 1

// stateLog returns the path of a job's state log and the header it
// carries: the log is a journal keyed on the job ID, so a state log from
// another job, or one written before state logs were journals, is refused.
func stateLog(stateDir, id string) (string, journal.Header) {
	part := "job=" + id
	return filepath.Join(jobDir(stateDir, id), "state.jsonl"), journal.Header{
		Kind: "serve-state", Key: journal.KeyHash(part), Version: stateLogVersion,
		Parts: []string{part},
	}
}

// openStateLog opens (creating if absent) a job's state log for appending
// and returns it with the transitions already recorded, keyed by their
// order. Opening heals a torn tail and takes the log's lock, so a second
// process appending to the same job at the same instant gets ErrLocked.
func openStateLog(stateDir, id string) (*journal.Journal[Transition], map[int]Transition, error) {
	path, hdr := stateLog(stateDir, id)
	log, done, err := journal.Open[Transition](path, hdr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, done, nil
}

// loadJob reconstructs one job from its directory. It only reads: the
// state log is scanned without its lock and a torn tail is left for the
// next append to heal, so loading is safe beside another live process.
// A missing state log (a crash between the spec write and the first
// transition) loads as queued; a refused or corrupt one is an error.
func loadJob(stateDir, id string) (*Job, error) {
	dir := jobDir(stateDir, id)
	buf, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	var spec Spec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("job %s: corrupt spec: %w", id, err)
	}
	spec.Normalize()
	j := &Job{ID: id, Spec: &spec, State: StateQueued}
	path, hdr := stateLog(stateDir, id)
	done, err := journal.Read[Transition](path, hdr)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("job %s: %s: %w", id, path, err)
	}
	for i := 0; i < len(done); i++ {
		t := done[i]
		j.State, j.Attempt, j.Updated = t.State, t.Attempt, t.At
		if t.Detail != "" {
			j.Detail = t.Detail
		}
		if j.Submitted.IsZero() {
			j.Submitted = t.At
		}
	}
	return j, nil
}

// loadJobs scans the state directory for every persisted job, sorted by ID
// (IDs embed a monotonic sequence, so this is admission order).
func loadJobs(stateDir string) ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(stateDir, "jobs"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		j, err := loadJob(stateDir, e.Name())
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs, nil
}
