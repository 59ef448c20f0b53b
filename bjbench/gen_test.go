package main

import (
	"reflect"
	"testing"
)

func TestCampaignCellsArePureInTheSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 12345} {
		a, b := CampaignCells(workloadFull, seed), CampaignCells(workloadFull, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two calls disagree:\n%v\n%v", seed, a, b)
		}
		if len(a) != cellsPerRound*Variants {
			t.Fatalf("seed %d: %d cells, want %d", seed, len(a), cellsPerRound*Variants)
		}
		offsets := map[uint64]bool{}
		for i, c := range a {
			if c.Offset == 0 {
				t.Errorf("seed %d: %s uses the published suite program", seed, c.Name())
			}
			if c.Variant != i/cellsPerRound {
				t.Errorf("seed %d: cell %d is variant %d, want %d", seed, i, c.Variant, i/cellsPerRound)
			}
			offsets[c.Offset] = true
		}
		if len(offsets) != 2*Variants {
			t.Errorf("seed %d: %d distinct programs, want %d", seed, len(offsets), 2*Variants)
		}
	}
	if reflect.DeepEqual(CampaignCells(workloadFull, 1), CampaignCells(workloadFull, 2)) {
		t.Fatal("seeds 1 and 2 give the same cells")
	}
}

func TestServeJobsArePureInTheSeed(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		a, b := ServeJobs(seed, 400), ServeJobs(seed, 400)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two calls disagree", seed)
		}
		if short := ServeJobs(seed, 50); !reflect.DeepEqual(short, a[:50]) {
			t.Fatalf("seed %d: a shorter sequence is not a prefix of a longer one", seed)
		}
	}
	if reflect.DeepEqual(ServeJobs(1, 100), ServeJobs(2, 100)) {
		t.Fatal("seeds 1 and 2 give the same jobs")
	}
}

func TestServeJobsShape(t *testing.T) {
	jobs := ServeJobs(3, 400)
	fresh := map[string]bool{}
	for i, j := range jobs {
		if j.Source < 0 {
			if fresh[j.Key()] {
				t.Fatalf("job %d: fresh identity %s seen before", i, j.Key())
			}
			fresh[j.Key()] = true
			continue
		}
		if j.Source >= i || jobs[j.Source].Source >= 0 || jobs[j.Source].Key() != j.Key() {
			t.Fatalf("job %d: repeat source %d is not an earlier fresh job with its identity", i, j.Source)
		}
	}
	for b := 0; b < len(jobs)/blockLen; b++ {
		n := 0
		for _, j := range jobs[b*blockLen : (b+1)*blockLen] {
			if j.Source < 0 {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("block %d holds %d fresh jobs, want 1", b, n)
		}
	}
	if jobs[0].Source >= 0 {
		t.Fatal("the first job repeats nothing yet")
	}
}

// TestServeRoundsDoTheSameWork checks that every measured round holds the
// same jobs up to order and budget, whatever the seed: one fresh job per
// benchmark with its fixed shape and blockLen-1 repeats of it, and that a
// repeat copies a round at least two back, so it never waits on the round
// before it.
func TestServeRoundsDoTheSameWork(t *testing.T) {
	round := ServeRound
	// counts maps each shape of a round to its fresh and repeat counts.
	counts := func(jobs []JobSpec) map[string][2]int {
		n := map[string][2]int{}
		for _, j := range jobs {
			k := j.Benchmark + "/" + j.Mode + "/" + j.FaultKind
			c := n[k]
			if j.Source < 0 {
				c[0]++
			} else {
				c[1]++
			}
			n[k] = c
		}
		return n
	}
	want := counts(ServeJobs(1, 2*round)[round:])
	if len(want) != serveShapes {
		t.Fatalf("a round has %d shapes, want %d", len(want), serveShapes)
	}
	for k, c := range want {
		if c != [2]int{1, blockLen - 1} {
			t.Errorf("shape %s: %d fresh, %d repeats; want 1, %d", k, c[0], c[1], blockLen-1)
		}
	}
	for _, seed := range []uint64{1, 2, 99} {
		jobs := ServeJobs(seed, 6*round)
		for r := 1; r < 6; r++ {
			if got := counts(jobs[r*round : (r+1)*round]); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d does other work than seed 1 round 1", seed, r)
			}
			for i := r * round; i < (r+1)*round; i++ {
				j := jobs[i]
				if j.Source < 0 {
					if j.Instructions != freshBase+r {
						t.Errorf("seed %d job %d: fresh budget %d, want %d", seed, i, j.Instructions, freshBase+r)
					}
					continue
				}
				if from := j.Source / round; from > max(r-2, 0) {
					t.Errorf("seed %d job %d (round %d) copies round %d", seed, i, r, from)
				}
			}
		}
	}
}
