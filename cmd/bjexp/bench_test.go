package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchJSONWritesOneObject pins the -bench-json contract: each
// invocation replaces the file with a single report object carrying the
// four speed ratios CI floors. Running the bench also runs its built-in
// equivalence checks (cold == checkpointed, the sampled contract,
// cache-warm == cold), which fail the call on any divergence.
func TestBenchJSONWritesOneObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for i := 0; i < 2; i++ {
		if err := runBenchJSON(path, "gcc", 3000, 1, 0); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not one JSON object: %v\n%s", err, data)
	}
	for _, key := range []string{"speedup", "ff_speedup", "ff_speedup_vs_ckpt", "cache_speedup"} {
		v, ok := rep[key].(float64)
		if !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive number", key, rep[key])
		}
	}
}
