// Package fault models hard (permanent) defects as deterministic corruption
// bound to one physical resource, implementing the pipeline's Injector
// surface. A fault fires every time (or — for state-dependent defects — every
// time a trigger pattern matches) a value flows through the faulty resource:
//
//   - a frontend way corrupts the decode of any instruction processed on it;
//   - a backend way corrupts results (or addresses, or branch directions)
//     computed on it;
//   - an issue-queue payload-RAM entry corrupts the instruction read at
//     issue — shared between threads, or per-thread when the machine has
//     split payload RAMs (Section 4.5 of the paper);
//   - a physical register corrupts every read of that register.
//
// This is exactly the paper's threat: a defect that escaped testing, possibly
// exercised only by specific machine state, silently corrupting data unless a
// redundancy check catches the divergence.
package fault

import (
	"fmt"

	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// Class locates the kind of resource a fault lives in.
type Class uint8

// Fault site classes.
const (
	// FrontendWay corrupts instruction decode on one frontend way.
	FrontendWay Class = iota
	// BackendWay corrupts values computed on one backend way.
	BackendWay
	// PayloadRAM corrupts the instruction payload read from one issue-queue
	// slot.
	PayloadRAM
	// RegisterFile corrupts reads of one physical register.
	RegisterFile

	NumClasses
)

var classNames = [NumClasses]string{
	FrontendWay: "frontend-way", BackendWay: "backend-way",
	PayloadRAM: "payload-ram", RegisterFile: "register-file",
}

// String names the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// DecodeField selects which decoded field a frontend/payload fault corrupts.
type DecodeField uint8

// Decode corruption targets.
const (
	FieldRs1 DecodeField = iota // flips the low bit of Rs1
	FieldRs2                    // flips the low bit of Rs2
	FieldRd                     // flips the low bit of Rd
	FieldImm                    // XORs BitMask into the immediate
	FieldOp                     // perturbs the opcode (stays decodable)
	NumDecodeFields
)

// Site is one hard fault.
type Site struct {
	Class Class

	// BackendWay coordinates.
	Unit isa.UnitClass
	Way  int // frontend or backend way index

	// PayloadRAM coordinates. Thread selects the RAM copy when the machine
	// has split payload RAMs; with a shared RAM it is ignored.
	Slot   int
	Thread int

	// RegisterFile coordinate.
	Reg rename.PhysReg

	// BitMask is XORed into corrupted data values (result, register read,
	// address, immediate). Zero defaults to bit 0.
	BitMask uint64
	// Field selects the decode corruption for FrontendWay/PayloadRAM sites.
	Field DecodeField
	// FlipBranch makes a BackendWay site invert branch directions computed
	// on the way (in addition to value corruption).
	FlipBranch bool
	// CorruptAddr makes a BackendWay site corrupt effective addresses
	// instead of data values.
	CorruptAddr bool

	// TriggerMask/TriggerValue gate the fault on operand state: corruption
	// fires only when value&TriggerMask == TriggerValue. A zero mask fires
	// always. This models defects "exercised by very specific machine
	// state" (Section 1) — present in silicon but latent for most inputs.
	TriggerMask  uint64
	TriggerValue uint64

	// FireAt selects which eligible use a KindTransient site corrupts
	// (1-based; 0 means 1).
	FireAt uint64

	// ArmAt, when positive on a non-transient site, models a latent hard
	// defect manifesting over time (the paper's Section 1 wear-out scenario:
	// electromigration, oxide breakdown): the site is dormant for its first
	// ArmAt-1 eligible uses and corrupts every use from the ArmAt-th on.
	// Transients cannot have one (FireAt selects their one shot).
	ArmAt uint64

	// Kind selects the fault model; the zero value is KindPermanent.
	Kind Kind

	// DutyPeriod/DutyOn define a KindIntermittent site's duty cycle in
	// eligible uses: the first DutyOn uses of every DutyPeriod-use window are
	// the on-window, the rest are off. DutyProb (a percentage; 0 means 100)
	// thins the on-window with a deterministic per-use draw seeded from the
	// site's identity.
	DutyPeriod uint64
	DutyOn     uint64
	DutyProb   uint8

	// StuckMask/StuckValue replace the XOR flip with a stuck-at pattern: the
	// bits under StuckMask are forced to StuckValue. A stuck bit that already
	// holds its stuck value corrupts nothing (and does not count as an
	// activation) — the defining difference from a flip mask.
	StuckMask  uint64
	StuckValue uint64
}

// String describes the site.
func (s Site) String() string {
	var base string
	switch s.Class {
	case FrontendWay:
		base = fmt.Sprintf("frontend-way %d (field %d)", s.Way, s.Field)
	case BackendWay:
		what := "value"
		if s.CorruptAddr {
			what = "addr"
		}
		if s.FlipBranch {
			what = "branch"
		}
		if s.Kind == KindControlFlow && !s.FlipBranch {
			what = "branch-target"
		}
		base = fmt.Sprintf("backend-way %v/%d (%s)", s.Unit, s.Way, what)
	case PayloadRAM:
		base = fmt.Sprintf("payload-ram slot %d thread %d (field %d)", s.Slot, s.Thread, s.Field)
	case RegisterFile:
		base = fmt.Sprintf("register p%d", s.Reg)
	default:
		return "unknown fault site"
	}
	if s.Kind != KindPermanent && s.Kind != KindTransient {
		base += " " + s.Kind.String()
	}
	return base
}

func (s Site) mask() uint64 {
	if s.BitMask == 0 {
		return 1
	}
	return s.BitMask
}

func (s Site) triggered(v uint64) bool {
	return v&s.TriggerMask == s.TriggerValue&s.TriggerMask
}

// corruptValue applies the site's data corruption: a stuck-at pattern when
// StuckMask is set, otherwise the XOR flip mask. A stuck-at that matches the
// value already present returns it unchanged — callers count an activation
// only when the value actually changed.
func (s Site) corruptValue(v uint64) uint64 {
	if s.StuckMask != 0 {
		return v&^s.StuckMask | s.StuckValue&s.StuckMask
	}
	return v ^ s.mask()
}

// corruptAddr is corruptValue on the word-aligned address lines (the low
// three bits are byte offsets the datapath never drives).
func (s Site) corruptAddr(a uint64) uint64 {
	if s.StuckMask != 0 {
		m := s.StuckMask << 3
		return a&^m | (s.StuckValue<<3)&m
	}
	return a ^ s.mask()<<3
}

// corruptInst applies the site's decode corruption.
func (s Site) corruptInst(in isa.Inst) isa.Inst {
	switch s.Field {
	case FieldRs1:
		in.Rs1 = (in.Rs1 ^ 1) % isa.NumArchRegs
	case FieldRs2:
		in.Rs2 = (in.Rs2 ^ 1) % isa.NumArchRegs
	case FieldRd:
		in.Rd = (in.Rd ^ 1) % isa.NumArchRegs
	case FieldImm:
		in.Imm = int64(s.corruptValue(uint64(in.Imm)))
	case FieldOp:
		in.Op = isa.Op((uint8(in.Op) + 1) % uint8(isa.NumOps))
	}
	return in
}

// Injector implements the pipeline's fault surface for a set of sites.
// SplitPayload models the paper's fix for the payload-RAM vulnerability
// (separate per-thread payload RAMs): a PayloadRAM site then only affects its
// own thread's copy.
type Injector struct {
	Sites        []Site
	SplitPayload bool

	// Now, when set, supplies the current cycle so the injector can record
	// when the fault first activated (for detection-latency measurements).
	Now func() int64

	// OnActivate, when set, is invoked after every activation (any site
	// actually changing a value) — the observability layer's
	// fault-activation hook. The running activation count and, with Now
	// attached, the current cycle are available from the injector inside
	// the callback.
	OnActivate func()

	activations uint64
	firstAct    int64
	hasFirst    bool
	uses        []uint64 // per-site eligible-use counts (for transients)
}

// Activations returns how many times any site actually changed a value.
func (inj *Injector) Activations() uint64 { return inj.activations }

// FirstActivation returns the cycle of the first activation; ok is false
// when the fault never activated or no clock was attached.
func (inj *Injector) FirstActivation() (int64, bool) { return inj.firstAct, inj.hasFirst }

// activate counts one corruption and stamps the first-activation cycle.
func (inj *Injector) activate() {
	inj.activations++
	if !inj.hasFirst && inj.Now != nil {
		inj.firstAct = inj.Now()
		inj.hasFirst = true
	}
	if inj.OnActivate != nil {
		inj.OnActivate()
	}
}

// SeedUses pre-loads the per-site eligible-use counters, so an injector
// installed on a machine forked from a mid-run checkpoint counts transient
// uses as if it had been present from cycle 0. counts must come from a
// Probe.UsesSnapshot taken on the same site list at the checkpoint cycle.
func (inj *Injector) SeedUses(counts []uint64) {
	inj.uses = make([]uint64, len(inj.Sites))
	copy(inj.uses, counts)
}

// fires decides whether site i corrupts this eligible use. The firing
// semantics (transient one-shot, intermittent duty windows, arming) live in
// Site.firesAt; this only maintains the per-site use counter, skipped
// entirely for always-on sites.
func (inj *Injector) fires(i int) bool {
	s := &inj.Sites[i]
	if !s.counted() {
		return true
	}
	if inj.uses == nil {
		inj.uses = make([]uint64, len(inj.Sites))
	}
	inj.uses[i]++
	return s.firesAt(inj.uses[i])
}

// CorruptDecode implements pipeline.Injector.
func (inj *Injector) CorruptDecode(way int, in isa.Inst) isa.Inst {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class == FrontendWay && s.Way == way && s.triggered(uint64(in.Imm)) && inj.fires(i) {
			out := s.corruptInst(in)
			if out != in {
				inj.activate()
			}
			in = out
		}
	}
	return in
}

// CorruptPayload implements pipeline.Injector.
func (inj *Injector) CorruptPayload(slot, thread int, in isa.Inst) isa.Inst {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class != PayloadRAM || s.Slot != slot {
			continue
		}
		if inj.SplitPayload && s.Thread != thread {
			continue
		}
		if !inj.fires(i) {
			continue
		}
		out := s.corruptInst(in)
		if out != in {
			inj.activate()
		}
		in = out
	}
	return in
}

// CorruptResult implements pipeline.Injector.
func (inj *Injector) CorruptResult(class isa.UnitClass, way int, in isa.Inst, v uint64) uint64 {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class == BackendWay && s.Unit == class && s.Way == way &&
			!s.CorruptAddr && !s.FlipBranch && s.Kind != KindControlFlow &&
			s.triggered(v) && inj.fires(i) {
			if nv := s.corruptValue(v); nv != v {
				v = nv
				inj.activate()
			}
		}
	}
	return v
}

// CorruptAddr implements pipeline.Injector.
func (inj *Injector) CorruptAddr(class isa.UnitClass, way int, addr uint64) uint64 {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class == BackendWay && s.Unit == class && s.Way == way &&
			s.CorruptAddr && s.triggered(addr) && inj.fires(i) {
			if na := s.corruptAddr(addr); na != addr {
				addr = na
				inj.activate()
			}
		}
	}
	return addr
}

// CorruptBranch implements pipeline.Injector.
func (inj *Injector) CorruptBranch(class isa.UnitClass, way int, taken bool) bool {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class == BackendWay && s.Unit == class && s.Way == way && s.FlipBranch && inj.fires(i) {
			taken = !taken
			inj.activate()
		}
	}
	return taken
}

// CorruptBranchTarget implements pipeline.Injector: a control-flow-error site
// mis-latches the computed target of branches executed on its way. The
// corrupted target flows to the redirect points (a mispredicted leading
// branch steers fetch down the wrong path) and to commit-time validation
// (the trailing thread's independently computed target exposes it).
func (inj *Injector) CorruptBranchTarget(class isa.UnitClass, way int, target int) int {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class == BackendWay && s.Unit == class && s.Way == way &&
			s.Kind == KindControlFlow && !s.FlipBranch &&
			s.triggered(uint64(target)) && inj.fires(i) {
			if nt := int(s.corruptValue(uint64(target))); nt != target {
				target = nt
				inj.activate()
			}
		}
	}
	return target
}

// CorruptRegRead implements pipeline.Injector.
func (inj *Injector) CorruptRegRead(p rename.PhysReg, v uint64) uint64 {
	for i := range inj.Sites {
		s := &inj.Sites[i]
		if s.Class == RegisterFile && s.Reg == p && s.triggered(v) && inj.fires(i) {
			if nv := s.corruptValue(v); nv != v {
				v = nv
				inj.activate()
			}
		}
	}
	return v
}
