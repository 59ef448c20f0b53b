package fault

import (
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// Probe is a non-mutating observer of a site list: it implements the
// pipeline's Injector surface but never changes a value, instead recording —
// per site — the cycle of the first use that a real Injector would have
// corrupted, and the running count of eligible uses (the transient FireAt
// counter).
//
// Campaign warmups run the fault-free golden simulation once with a Probe
// attached. Because the probe never corrupts, sites cannot interact: every
// site observes the pristine trajectory, so FireCycle(i) is exactly the first
// activation cycle of a solo run injecting site i, and the first activation
// of any subset is lower-bounded by the minimum FireCycle over its members
// (until the first corruption, the multi-site machine is byte-identical to
// the pristine one). Any checkpoint taken strictly before that minimum is
// therefore a valid fork point for the subset, and UsesSnapshot taken there
// seeds the fork's Injector counters exactly.
type Probe struct {
	Sites        []Site
	SplitPayload bool

	// Now supplies the current cycle (the machine's clock).
	Now func() int64

	uses []uint64
	fire []int64
	init bool

	// Per-resource site-index buckets: every Corrupt* hook runs on the hot
	// path of the campaign warmup (for every decode, issue, result and
	// register read), and scanning the full site list there is the dominant
	// warmup overhead. Bucketing by static coordinates visits only the sites
	// that could match — typically zero or one — without changing per-site
	// conditions, counting order or semantics (buckets are disjoint and
	// preserve site order).
	feWay   map[int][]int
	beVal   map[[2]int][]int
	beAddr  map[[2]int][]int
	beBr    map[[2]int][]int
	beTgt   map[[2]int][]int
	paySlot map[int][]int
	regRead map[rename.PhysReg][]int
}

func (pr *Probe) ensure() {
	if pr.init {
		return
	}
	pr.uses = make([]uint64, len(pr.Sites))
	pr.fire = make([]int64, len(pr.Sites))
	for i := range pr.fire {
		pr.fire[i] = -1
	}
	pr.feWay = make(map[int][]int)
	pr.beVal = make(map[[2]int][]int)
	pr.beAddr = make(map[[2]int][]int)
	pr.beBr = make(map[[2]int][]int)
	pr.beTgt = make(map[[2]int][]int)
	pr.paySlot = make(map[int][]int)
	pr.regRead = make(map[rename.PhysReg][]int)
	for i := range pr.Sites {
		s := &pr.Sites[i]
		switch s.Class {
		case FrontendWay:
			pr.feWay[s.Way] = append(pr.feWay[s.Way], i)
		case BackendWay:
			key := [2]int{int(s.Unit), s.Way}
			switch {
			case s.FlipBranch:
				pr.beBr[key] = append(pr.beBr[key], i)
			case s.Kind == KindControlFlow:
				pr.beTgt[key] = append(pr.beTgt[key], i)
			case s.CorruptAddr:
				pr.beAddr[key] = append(pr.beAddr[key], i)
			default:
				pr.beVal[key] = append(pr.beVal[key], i)
			}
		case PayloadRAM:
			pr.paySlot[s.Slot] = append(pr.paySlot[s.Slot], i)
		case RegisterFile:
			pr.regRead[s.Reg] = append(pr.regRead[s.Reg], i)
		}
	}
	pr.init = true
}

// fires mirrors Injector.fires exactly — both delegate the firing decision
// to Site.firesAt, so the probe cannot drift from the injector — without any
// corruption side effect.
func (pr *Probe) fires(i int) bool {
	s := &pr.Sites[i]
	if !s.counted() {
		return true
	}
	pr.uses[i]++
	return s.firesAt(pr.uses[i])
}

// record stamps site i's first value-changing use.
func (pr *Probe) record(i int) {
	if pr.fire[i] < 0 && pr.Now != nil {
		pr.fire[i] = pr.Now()
	}
}

// FireCycle returns the cycle site i first changed a value on the pristine
// trajectory, or -1 if it never would (for transients: its one shot missed or
// never came; for triggered sites: the trigger never matched a value that
// would change).
func (pr *Probe) FireCycle(i int) int64 {
	pr.ensure()
	return pr.fire[i]
}

// UsesSnapshot returns a copy of the per-site eligible-use counters, for
// seeding a forked Injector via SeedUses.
func (pr *Probe) UsesSnapshot() []uint64 {
	pr.ensure()
	out := make([]uint64, len(pr.uses))
	copy(out, pr.uses)
	return out
}

// CorruptDecode implements pipeline.Injector without mutating.
func (pr *Probe) CorruptDecode(way int, in isa.Inst) isa.Inst {
	pr.ensure()
	for _, i := range pr.feWay[way] {
		s := &pr.Sites[i]
		if s.triggered(uint64(in.Imm)) && pr.fires(i) {
			if s.corruptInst(in) != in {
				pr.record(i)
			}
		}
	}
	return in
}

// CorruptPayload implements pipeline.Injector without mutating.
func (pr *Probe) CorruptPayload(slot, thread int, in isa.Inst) isa.Inst {
	pr.ensure()
	for _, i := range pr.paySlot[slot] {
		s := &pr.Sites[i]
		if pr.SplitPayload && s.Thread != thread {
			continue
		}
		if !pr.fires(i) {
			continue
		}
		if s.corruptInst(in) != in {
			pr.record(i)
		}
	}
	return in
}

// CorruptResult implements pipeline.Injector without mutating.
func (pr *Probe) CorruptResult(class isa.UnitClass, way int, in isa.Inst, v uint64) uint64 {
	pr.ensure()
	for _, i := range pr.beVal[[2]int{int(class), way}] {
		s := &pr.Sites[i]
		if s.triggered(v) && pr.fires(i) {
			// A stuck-at matching the present value changes nothing; only a
			// value-changing use counts as the first activation.
			if s.corruptValue(v) != v {
				pr.record(i)
			}
		}
	}
	return v
}

// CorruptAddr implements pipeline.Injector without mutating.
func (pr *Probe) CorruptAddr(class isa.UnitClass, way int, addr uint64) uint64 {
	pr.ensure()
	for _, i := range pr.beAddr[[2]int{int(class), way}] {
		s := &pr.Sites[i]
		if s.triggered(addr) && pr.fires(i) {
			if s.corruptAddr(addr) != addr {
				pr.record(i)
			}
		}
	}
	return addr
}

// CorruptBranch implements pipeline.Injector without mutating.
func (pr *Probe) CorruptBranch(class isa.UnitClass, way int, taken bool) bool {
	pr.ensure()
	for _, i := range pr.beBr[[2]int{int(class), way}] {
		if pr.fires(i) {
			pr.record(i)
		}
	}
	return taken
}

// CorruptBranchTarget implements pipeline.Injector without mutating.
func (pr *Probe) CorruptBranchTarget(class isa.UnitClass, way int, target int) int {
	pr.ensure()
	for _, i := range pr.beTgt[[2]int{int(class), way}] {
		s := &pr.Sites[i]
		if s.triggered(uint64(target)) && pr.fires(i) {
			if int(s.corruptValue(uint64(target))) != target {
				pr.record(i)
			}
		}
	}
	return target
}

// CorruptRegRead implements pipeline.Injector without mutating.
func (pr *Probe) CorruptRegRead(p rename.PhysReg, v uint64) uint64 {
	pr.ensure()
	for _, i := range pr.regRead[p] {
		s := &pr.Sites[i]
		if s.triggered(v) && pr.fires(i) {
			if s.corruptValue(v) != v {
				pr.record(i)
			}
		}
	}
	return v
}
