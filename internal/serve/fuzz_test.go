package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// specSeeds are the job-spec bodies the fuzzer starts from: the spec_test
// cases, the serve-smoke CI submission, and the README submission in both
// spellings.
var specSeeds = []string{
	`{"type": "campaign", "benchmark": "gcc", "mode": "srt", "instructions": 12000,
	  "fault_kind": "transient", "tenant": "alice", "weight": 3, "deadline": "90s",
	  "seed": 18446744073709551615}`,
	"# a sweep over two benchmarks and two variants\ntype: sweep\nbenchmarks: [gzip, gcc]   # flow list\n" +
		"modes:                    # block list\n  - srt\n  - blackjack\ninstructions: 8000\ndeadline: \"3m\"\ncache: verify\n",
	`{}`,
	`{"benchmrak": "gcc"}`,
	`{"fault_kin": "transient"}`,
	`bnechmark: gcc`,
	`{"run_timeot": "5s"}`,
	`{"benchmark": "gzp"}`,
	`{"mode": "blakjack"}`,
	`{"fault_kind": "permanant"}`,
	`{"sites": "latent", "fault_kind": "transient"}`,
	`{"sites": "laten"}`,
	`{"type": "campain"}`,
	`{"cache": "maybe"}`,
	`{"cache_verify": 1.5}`,
	`{"weight": 5000}`,
	`{"retries": 99}`,
	`{"type": "fuzz", "variant": "blackjak"}`,
	`{"mode": "blackjac"}`,
	"campaign:\n  benchmark: gcc",
	`{"weight": "heavy"}`,
	`{"benchmark":"gzip","mode":"blackjack","instructions":60000,"sites":"latent","parallel":2,"cache":"off"}`,
	`{"benchmark": "gzip", "sites": "latent", "instructions": 60000}`,
	"benchmark: gzip\nsites: latent\ninstructions: 60000\n",
}

// FuzzSpecParse checks the untrusted job-spec parser: Parse never panics;
// a YAML body and the JSON re-encoding of its map are accepted or rejected
// together and, when accepted, parse to equal specs; and an accepted spec
// survives a JSON marshal/parse round trip unchanged.
func FuzzSpecParse(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := Parse(data, "application/json"); err == nil {
			checkRoundTrip(t, spec)
		}
		fromYAML, yerr := Parse(data, "application/yaml")
		if yerr == nil {
			checkRoundTrip(t, fromYAML)
		}
		// An empty body is refused before either format is read.
		m, err := parseYAML(data)
		if err != nil || len(bytes.TrimSpace(data)) == 0 {
			return
		}
		js, err := json.Marshal(m)
		if err != nil {
			if yerr == nil {
				t.Fatalf("YAML accepted but its map does not encode as JSON: %v", err)
			}
			return
		}
		fromJSON, jerr := Parse(js, "application/json")
		if (yerr == nil) != (jerr == nil) {
			t.Fatalf("YAML and JSON spellings disagree:\nyaml err: %v\njson err: %v\njson: %s", yerr, jerr, js)
		}
		if yerr == nil && !reflect.DeepEqual(fromYAML, fromJSON) {
			t.Fatalf("YAML and JSON spellings parse differently:\nyaml: %+v\njson: %+v", fromYAML, fromJSON)
		}
	})
}

// checkRoundTrip marshals an accepted spec to JSON and parses it again;
// the result must equal the original.
func checkRoundTrip(t *testing.T, spec *Spec) {
	t.Helper()
	js, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal accepted spec: %v", err)
	}
	again, err := Parse(js, "application/json")
	if err != nil {
		t.Fatalf("accepted spec rejected after round trip: %v\njson: %s", err, js)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip changed the spec:\nbefore: %+v\nafter:  %+v", spec, again)
	}
}
