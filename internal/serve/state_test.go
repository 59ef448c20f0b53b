package serve

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// A crash that tears a state-log line must not swallow the transitions
// appended after it: the job must reload in the state its last record
// names, not in the state before the tear.
func TestTornStateLogKeepsLaterTransitions(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(s1.Handler())
	j := submit(t, ts, `{"benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)
	ts.Close()
	defer s1.Drain(context.Background())

	// Start never ran, so the test is the job's only writer.
	transition := func(states ...State) {
		s1.mu.Lock()
		defer s1.mu.Unlock()
		for _, st := range states {
			s1.transitionLocked(s1.jobs[j.ID], st, "")
		}
	}
	transition(StateRunning) // queued (at submit), running

	// The crash: a record written only in part, with no newline.
	f, err := os.OpenFile(filepath.Join(jobDir(dir, j.ID), "state.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":2,"r":{"state":"dra`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	transition(StateQueued, StateRunning, StateDone)

	s2 := newTestServer(t, Options{StateDir: dir})
	got, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("reload lost job %s", j.ID)
	}
	if got.State != StateDone {
		t.Fatalf("job reloaded as %s (%q), want done", got.State, got.Detail)
	}
}

// A state dir written before state logs were journals holds bare
// transition lines; reloading it is refused with an error naming the file
// instead of being guessed at.
func TestPreJournalStateLogRefused(t *testing.T) {
	dir := t.TempDir()
	jd := jobDir(dir, "j000001")
	if err := os.MkdirAll(jd, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := `{"kind": "campaign", "benchmark": "gzip", "instructions": 1500, "sites": "latent"}`
	if err := os.WriteFile(filepath.Join(jd, "spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	old := `{"state":"queued","at":"2026-01-01T00:00:00Z","attempt":0}` + "\n"
	if err := os.WriteFile(filepath.Join(jd, "state.jsonl"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{StateDir: dir})
	if err == nil {
		t.Fatal("New accepted a pre-journal state log")
	}
	if !strings.Contains(err.Error(), filepath.Join(jd, "state.jsonl")) {
		t.Errorf("refusal %q does not name the state log", err)
	}
}

// Loading a state dir only reads it: a job whose state log another
// process holds, in the middle of an append, still loads in the state its
// intact records name, and the half-written line is left for its writer.
func TestReloadBesideLockedTornStateLog(t *testing.T) {
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" {
		t.Skip("flock exclusivity is unix-only")
	}
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(s1.Handler())
	j := submit(t, ts, `{"benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)
	ts.Close()
	defer s1.Drain(context.Background())
	s1.mu.Lock()
	s1.transitionLocked(s1.jobs[j.ID], StateDone, "")
	s1.mu.Unlock()

	// Another process opens the log and has written part of a record.
	held, _, err := openStateLog(dir, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	path := filepath.Join(jobDir(dir, j.ID), "state.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"i":2,"r":{"sta`)
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatalf("New beside a held state log: %v", err)
	}
	got, ok := s2.Job(j.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("job reloaded as %+v (found %v), want done", got, ok)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("loading changed the held state log:\n%q\nbecame\n%q", before, after)
	}
}

// A state log damaged anywhere but its last line cannot come from a
// crash (an append heals a torn tail first), so the server refuses to
// start rather than guess at the job's state, and names the file.
func TestCorruptStateLogRefused(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(s1.Handler())
	j := submit(t, ts, `{"benchmark": "gzip", "instructions": 1500, "sites": "latent", "cache": "off"}`)
	ts.Close()
	s1.Drain(context.Background())

	path := filepath.Join(jobDir(dir, j.ID), "state.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("GARBAGE NOT JSON\n")
	f.WriteString(`{"i":1,"r":{"state":"done","at":"2026-01-01T00:00:00Z","attempt":1}}` + "\n")
	f.Close()
	_, err = New(Options{StateDir: dir})
	if err == nil {
		t.Fatal("New accepted a state log corrupt before its last line")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("refusal %q does not name the state log", err)
	}
}
