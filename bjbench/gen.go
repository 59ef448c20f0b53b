package main

import (
	"fmt"

	"blackjack/internal/fault"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
)

// This file turns --seed into each workload's inputs. Everything here is a
// pure function of the seed: the same seed gives the same cells and the same
// job sequence, and the simulator only ever sees what these functions
// return.

// DefaultSeed is the seed whose campaign tables are pinned in digests.json.
const DefaultSeed = 1

// Budget is the committed-instruction budget of every campaign cell:
// bjfault's default.
const Budget = 30_000

// Site lists of a campaign cell. The last three are the canonical
// campaigns of the newer fault kinds (sim.SitesForKind).
const (
	SitesPermanent    = "permanent"
	SitesTransient    = "transient"
	SitesLatent       = "latent"
	SitesIntermittent = "intermittent"
	SitesMultiBit     = "multi-bit"
	SitesControlFlow  = "control-flow"
)

// Cell is one batch campaign: a program variant, a machine mode and a site
// list. Offset selects the variant through prog.SeededBenchmark; FireAt is
// the one-shot use a transient site corrupts. Variant numbers the round the
// cell belongs to.
type Cell struct {
	Bench   string
	Mode    pipeline.Mode
	Sites   string
	Offset  uint64
	FireAt  uint64
	Variant int
}

// Name identifies the cell in digests, spans and logs.
func (c Cell) Name() string {
	return fmt.Sprintf("%s/%s/%s/v%d", c.Bench, c.Mode, c.Sites, c.Variant)
}

// SiteList builds the cell's fault sites for the machine.
func (c Cell) SiteList(m pipeline.Config) []fault.Site {
	switch c.Sites {
	case SitesTransient:
		return sim.TransientSites(m, c.FireAt)
	case SitesLatent:
		return sim.LatentSites(m)
	case SitesIntermittent, SitesMultiBit, SitesControlFlow:
		kind, err := fault.ParseKind(c.Sites)
		if err == nil {
			var sites []fault.Site
			if sites, err = sim.SitesForKind(m, kind); err == nil {
				return sites
			}
		}
		panic(fmt.Sprintf("site list %q: %v", c.Sites, err))
	}
	return sim.StandardSites(m)
}

// splitmix is the splitmix64 step: a well-mixed 64-bit value per counter.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a tiny deterministic generator seeded from the benchmark seed.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: splitmix(seed ^ splitmix(stream))} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Campaign workload shape: a round is six cells, {gcc/blackjack,
// swim/srt} × {permanent, transient, latent}, all on one program variant per
// benchmark; successive rounds cycle through Variants variants, so that one
// run averages over several programs instead of resting on one.
const (
	Variants      = 3
	cellsPerRound = 6
)

// CampaignCells returns the cells a campaign workload runs, round by round:
// cells [cellsPerRound·v, cellsPerRound·(v+1)) are variant v.
// campaign-full and campaign-sampled run the permanent, transient and latent
// site lists, campaign-kinds the intermittent, multi-bit and control-flow
// ones. The seed picks each variant's programs, the same for every
// workload, and each transient cell's fire time.
func CampaignCells(workload string, seed uint64) []Cell {
	lists := []string{SitesPermanent, SitesTransient, SitesLatent}
	if workload == workloadKinds {
		lists = []string{SitesIntermittent, SitesMultiBit, SitesControlFlow}
	}
	r := newRNG(seed, 1)
	idents := []struct {
		bench string
		mode  pipeline.Mode
	}{{"gcc", pipeline.ModeBlackJack}, {"swim", pipeline.ModeSRT}}
	var cells []Cell
	for v := 0; v < Variants; v++ {
		for _, id := range idents {
			// Offset 0 is the published suite program; every seed gets its
			// own variants instead.
			offset := r.next() | 1
			fireAt := uint64(8 + r.intn(40))
			for _, s := range lists {
				c := Cell{Bench: id.bench, Mode: id.mode, Sites: s, Offset: offset, Variant: v}
				if s == SitesTransient {
					c.FireAt = fireAt
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// JobSpec is one serve-mixed submission. Source is the index of the job
// whose identity this one repeats (-1 for a fresh identity); a client waits
// for the source job to finish before it submits a repeat, so a repeat is
// always served from the run cache.
type JobSpec struct {
	Tenant       string `json:"tenant"`
	Benchmark    string `json:"benchmark"`
	Mode         string `json:"mode"`
	FaultKind    string `json:"fault_kind"`
	Instructions int    `json:"instructions"`
	Source       int    `json:"-"`
}

// Key is the job's campaign identity: equal keys give byte-identical
// results.
func (j JobSpec) Key() string {
	return fmt.Sprintf("%s/%s/%s/%d", j.Benchmark, j.Mode, j.FaultKind, j.Instructions)
}

// Serve-mixed shape: a round holds one fresh job for each of the first
// serveShapes benchmarks, in blocks of blockLen jobs with exactly one fresh
// identity each; the rest repeat an identity submitted earlier. Fresh jobs
// of round r run freshBase+r instructions, which keeps every fresh identity
// new while every round does the same work. At freshBase a live run costs
// tens of times more than its fsyncs on a quiet disk, so there the live
// path, not the disk, sets the pace.
const (
	blockLen    = 4
	serveShapes = 8
	freshBase   = 10_000
	// ServeRound is the serve-mixed round length in jobs.
	ServeRound = blockLen * serveShapes
)

var (
	serveModes = []string{"srt", "blackjack", "blackjack-ns"}
	serveKinds = []string{"permanent", "transient", "intermittent", "multi-bit", "control-flow"}
)

// freshShape is the job benchmark b runs as a fresh identity in every
// round: its mode and fault kind are fixed by the benchmark's index, so
// the first serveShapes benchmarks cover every mode and every fault kind.
func freshShape(benches []string, b, round int) JobSpec {
	return JobSpec{
		Benchmark:    benches[b],
		Mode:         serveModes[b%len(serveModes)],
		FaultKind:    serveKinds[b%len(serveKinds)],
		Instructions: freshBase + round,
		Source:       -1,
	}
}

// ServeJobs returns the first n jobs of the serve-mixed sequence for the
// seed, in rounds of ServeRound jobs. Every round has one fresh job for
// each of the first serveShapes benchmarks, each with its fixed shape
// (freshShape). Round 0 is the warm-up: its repeats copy earlier fresh jobs
// of the same round. In every later round each shape is also repeated
// exactly blockLen-1 times, copying that shape's fresh job from an earlier
// round (not the previous one, once there is a choice, since its last jobs
// may still be running), so every measured round does the same work
// whatever the seed. The seed picks the order of the fresh jobs, where in
// each block of blockLen the fresh job sits, the order of the repeats and
// the round each repeat copies.
func ServeJobs(seed uint64, n int) []JobSpec {
	r := newRNG(seed, 2)
	benches := prog.BenchmarkNames()
	round := ServeRound
	var (
		fresh       []int   // indices of round 0's fresh jobs
		freshOf     [][]int // freshOf[rd][b]: index of shape b's fresh job in round rd
		order, reps []int
		freshAt     int
	)
	jobs := make([]JobSpec, 0, n)
	for i := 0; i < n; i++ {
		rd, pos := i/round, i%round
		if pos == 0 {
			order, reps = r.perm(serveShapes), r.perm(round-serveShapes)
			freshOf = append(freshOf, make([]int, serveShapes))
		}
		if i%blockLen == 0 && i > 0 {
			freshAt = r.intn(blockLen)
		}
		tenant := fmt.Sprintf("t%d", i%2)
		if i%blockLen == freshAt {
			b := order[pos/blockLen]
			j := freshShape(benches, b, rd)
			j.Tenant = tenant
			freshOf[rd][b] = i
			if rd == 0 {
				fresh = append(fresh, i)
			}
			jobs = append(jobs, j)
			continue
		}
		var src int
		if rd == 0 {
			src = pickRepeat(r, fresh)
		} else {
			// The k-th repeat of the round copies shape reps[k] mod serveShapes.
			k := pos/blockLen*(blockLen-1) + pos%blockLen
			if pos%blockLen > freshAt {
				k--
			}
			from := r.intn(max(rd-1, 1))
			src = freshOf[from][reps[k]%serveShapes]
		}
		j := jobs[src]
		j.Tenant, j.Source = tenant, src
		jobs = append(jobs, j)
	}
	return jobs
}

// pickRepeat picks the fresh job a warm-up repeat copies: uniformly among
// the earlier fresh jobs, leaving out the latest while others exist,
// because it is most likely still running.
func pickRepeat(r *rng, fresh []int) int {
	pool := fresh
	if len(pool) > 1 {
		pool = pool[:len(pool)-1]
	}
	return pool[r.intn(len(pool))]
}
