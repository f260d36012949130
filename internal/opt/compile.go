package opt

import (
	"fmt"

	"peak/internal/ir"
	"peak/internal/lower"
	"peak/internal/machine"
	"peak/internal/regalloc"
	"peak/internal/sim"
)

// Compile translates fn (within prog) into a runnable version for machine m
// under the given optimization flags. The paper's tuning system calls this
// once per explored flag combination per tuning section ("the Remote
// Optimizer can be any compiler", §4.2).
//
// Pass pipeline (HIR → LIR → allocation → cost modifiers):
//
//	inline-functions → delete-null-pointer-checks → fold (always) →
//	cprop-registers → loop-optimize/gcse-lm/gcse-sm → strength-reduce →
//	rerun-loop-opt → unroll-loops → CSE family → rerun-cse-after-loop →
//	if-conversion(2) → fold/dce (always) → lower →
//	regmove → peephole2 → rename-registers → schedule-insns(+interblock) →
//	thread-jumps → guess-branch-probability → reorder-blocks →
//	register allocation (omit-frame-pointer, caller-saves) →
//	schedule-insns2 → crossjumping/alignment/call-linkage cost modifiers.
//
// Compilation is a pure function of (prog, fn, flags, m): no pass may let
// map iteration order the code it emits.
func Compile(prog *ir.Program, fn *ir.Func, flags FlagSet, m *machine.Machine) (*sim.Version, error) {
	return (*Stages)(nil).Compile(prog, fn, flags, m)
}

// Stages runs the Compile pipeline in two stages and memoizes the first.
// The HIR stage (HIR passes and lowering) reads only the hirFlags subset of
// the flags and never the machine, so its output is keyed by
// (prog, fn, flags & hirFlags); the LIR stage (LIR passes, register
// allocation, cost modifiers) starts from a private copy of that output, so
// a memo entry is never mutated. Iterative Elimination's candidates differ
// from their base in one flag, so most of them reuse the base's HIR work.
//
// A nil *Stages memoizes nothing: (*Stages)(nil).Compile is Compile. A
// Stages is not safe for concurrent use, and the programs and functions
// passed to it must not change while it is in use (the memo keys them by
// identity).
type Stages struct {
	memo         map[hirKey]hirResult
	hits, misses int
}

type hirKey struct {
	prog  *ir.Program
	fn    *ir.Func
	flags FlagSet
}

type hirResult struct {
	lf  *ir.LFunc
	err error
}

// hirFlags are the flags the HIR stage reads.
const hirFlags = FlagSet(1)<<FInlineFunctions | FlagSet(1)<<FDeleteNullPointerChecks |
	FlagSet(1)<<FCPropRegisters | FlagSet(1)<<FGCSELoadMotion | FlagSet(1)<<FLoopOptimize |
	FlagSet(1)<<FGCSEStoreMotion | FlagSet(1)<<FExpensiveOptimizations |
	FlagSet(1)<<FStrictAliasing | FlagSet(1)<<FStrengthReduce | FlagSet(1)<<FRerunLoopOpt |
	FlagSet(1)<<FUnrollLoops | FlagSet(1)<<FCSEFollowJumps | FlagSet(1)<<FCSESkipBlocks |
	FlagSet(1)<<FGCSE | FlagSet(1)<<FForceMem | FlagSet(1)<<FRerunCSEAfterLoop |
	FlagSet(1)<<FIfConversion | FlagSet(1)<<FIfConversion2

// NewStages returns an empty stage memo.
func NewStages() *Stages { return &Stages{memo: map[hirKey]hirResult{}} }

// Compile is Compile with the HIR stage answered from, and recorded in,
// the memo.
func (s *Stages) Compile(prog *ir.Program, fn *ir.Func, flags FlagSet, m *machine.Machine) (*sim.Version, error) {
	return s.compile(prog, fn, flags, m, 0)
}

// Stats reports how many HIR-stage runs the memo answered (hits) and how
// many it ran (misses).
func (s *Stages) Stats() (hits, misses int) { return s.hits, s.misses }

// lowered returns a private copy of the HIR stage's output for fn.
func (s *Stages) lowered(prog *ir.Program, fn *ir.Func, flags FlagSet) (*ir.LFunc, error) {
	flags &= hirFlags
	if s == nil {
		return lowerHIR(prog, fn, flags)
	}
	k := hirKey{prog: prog, fn: fn, flags: flags}
	r, ok := s.memo[k]
	if ok {
		s.hits++
	} else {
		s.misses++
		r.lf, r.err = lowerHIR(prog, fn, flags)
		s.memo[k] = r
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.lf.Clone(), nil
}

const maxCalleeDepth = 8

func (s *Stages) compile(prog *ir.Program, fn *ir.Func, flags FlagSet, m *machine.Machine, depth int) (*sim.Version, error) {
	if depth > maxCalleeDepth {
		return nil, fmt.Errorf("opt: callee nesting exceeds %d in %s", maxCalleeDepth, fn.Name)
	}
	lf, err := s.lowered(prog, fn, flags)
	if err != nil {
		return nil, err
	}
	v, err := compileLIR(lf, fn.Name, flags, m)
	if err != nil {
		return nil, err
	}

	// --- Callees ------------------------------------------------------------
	callees := map[string]bool{}
	collectCallees(lf, callees)
	if len(callees) > 0 {
		v.Callees = make(map[string]*sim.Version, len(callees))
		for name := range callees {
			calleeFn, ok := prog.Funcs[name]
			if !ok {
				return nil, fmt.Errorf("opt: %s calls undefined function %q", fn.Name, name)
			}
			cv, err := s.compile(prog, calleeFn, flags, m, depth+1)
			if err != nil {
				return nil, err
			}
			v.Callees[name] = cv
			v.CodeSize += cv.CodeSize
		}
	}
	return v, nil
}

// lowerHIR is the HIR stage: it optimizes a copy of fn and lowers it.
func lowerHIR(prog *ir.Program, fn *ir.Func, flags FlagSet) (*ir.LFunc, error) {
	return lower.Lower(prog, optimizeHIR(prog, fn, flags))
}

// optimizeHIR runs the HIR passes on a copy of fn. It must read no flag
// outside hirFlags.
func optimizeHIR(prog *ir.Program, fn *ir.Func, flags FlagSet) *ir.Func {
	work := fn.Clone()
	namer := newTempNamer(work)

	// --- HIR passes -------------------------------------------------------
	if flags.Has(FInlineFunctions) {
		inlineCalls(work, prog, namer)
	}
	if flags.Has(FDeleteNullPointerChecks) {
		removeGuards(work)
	}
	foldConstants(work)
	if flags.Has(FCPropRegisters) {
		propagateCopies(work)
	}

	licm := licmOpts{
		loads:       flags.Has(FGCSELoadMotion) && flags.Has(FLoopOptimize),
		stores:      flags.Has(FGCSEStoreMotion) && flags.Has(FExpensiveOptimizations),
		strictAlias: flags.Has(FStrictAliasing),
	}
	if flags.Has(FLoopOptimize) {
		hoistInvariants(work, prog, licm, namer)
	}
	if flags.Has(FStrengthReduce) {
		reduceStrength(work, prog, flags.Has(FExpensiveOptimizations), namer)
	}
	if flags.Has(FRerunLoopOpt) && flags.Has(FLoopOptimize) {
		hoistInvariants(work, prog, licm, namer)
	}
	if flags.Has(FUnrollLoops) {
		unrollLoops(work, prog, namer)
	}

	cse := cseOpts{
		followJumps: flags.Has(FCSEFollowJumps),
		skipBlocks:  flags.Has(FCSESkipBlocks),
		global:      flags.Has(FGCSE),
		strictAlias: flags.Has(FStrictAliasing),
		loadReuse: (flags.Has(FGCSE) || flags.Has(FForceMem)) &&
			flags.Has(FStrictAliasing),
	}
	eliminateCommonSubexprs(work, prog, cse, namer)
	if flags.Has(FRerunCSEAfterLoop) {
		eliminateCommonSubexprs(work, prog, cse, namer)
	}

	if flags.Has(FIfConversion) {
		convertIfs(work, prog, ifConvOpts{
			basic:      true,
			aggressive: flags.Has(FIfConversion2),
		}, namer)
	}
	foldConstants(work)
	if flags.Has(FCPropRegisters) {
		propagateCopies(work)
	}
	eliminateDeadCode(work, prog)
	return work
}

// compileLIR is the LIR stage: it optimizes lf in place, allocates its
// registers and derives the version's cost modifiers.
func compileLIR(lf *ir.LFunc, name string, flags FlagSet, m *machine.Machine) (*sim.Version, error) {
	if flags.Has(FRegmove) {
		coalesceMoves(lf)
	}
	if flags.Has(FPeephole2) {
		peephole(lf)
	}
	if flags.Has(FRenameRegisters) {
		renameRegisters(lf)
	}
	sched := schedOpts{
		interblock:  flags.Has(FSchedInterblock),
		strictAlias: flags.Has(FStrictAliasing),
		latency:     func(op ir.Opcode) int64 { return m.OpLatency[op] },
	}
	if flags.Has(FScheduleInsns) {
		scheduleBlocks(lf, sched)
	}
	if flags.Has(FThreadJumps) {
		threadJumps(lf)
	}
	if flags.Has(FGuessBranchProbability) || flags.Has(FBranchProbabilities) {
		applyBranchHints(lf)
	}
	if flags.Has(FReorderBlocks) {
		reorderBlockLayout(lf, flags.Has(FGuessBranchProbability) || flags.Has(FBranchProbabilities))
	}

	// --- Register allocation ----------------------------------------------
	intRegs, floatRegs := m.IntRegs, m.FloatRegs
	if flags.Has(FOmitFramePointer) {
		intRegs++
	}
	hasCalls := lfHasCalls(lf)
	if hasCalls && !flags.Has(FCallerSaves) {
		// Without caller-saves, values live across calls are confined to
		// the callee-saved subset.
		intRegs -= 2
		floatRegs -= 2
		if intRegs < 2 {
			intRegs = 2
		}
		if floatRegs < 2 {
			floatRegs = 2
		}
	}
	alloc := regalloc.Allocate(lf, intRegs, floatRegs)

	if flags.Has(FScheduleInsns2) && flags.Has(FScheduleInsns) {
		spillSched := sched
		spillSched.spillAware = alloc.Spilled
		spillSched.extraSpillLat = m.SpillLoadCost
		scheduleBlocks(lf, spillSched)
		alloc = regalloc.Allocate(lf, intRegs, floatRegs)
	}

	if err := ir.VerifyLFunc(lf); err != nil {
		return nil, fmt.Errorf("opt: post-pipeline verification failed for %s under %s: %w",
			name, flags, err)
	}

	// --- Cost modifiers -----------------------------------------------------
	mods := sim.DefaultCostMods()
	codeSize := lf.InstrCount()
	if flags.Has(FCrossjumping) {
		codeSize -= crossjumpSavings(lf)
	}
	if flags.Has(FAlignFunctions) {
		mods.CodeSizeExtra += 8
	}
	if flags.Has(FAlignJumps) {
		mods.TakenBranchFactor *= 0.93
		mods.CodeSizeExtra += codeSize / 24
	}
	if flags.Has(FAlignLabels) {
		mods.TakenBranchFactor *= 0.95
		mods.CodeSizeExtra += codeSize / 32
	}
	if flags.Has(FAlignLoops) {
		mods.TakenBranchFactor *= 0.88
		mods.CodeSizeExtra += codeSize / 16
	}
	if flags.Has(FDelayedBranch) && m.Name == "sparc2" {
		mods.TakenBranchFactor *= 0.70
	}
	if flags.Has(FDeferPop) {
		mods.CallOverheadFactor *= 0.90
	}
	if flags.Has(FOptimizeSiblingCalls) && hasCalls {
		mods.CallOverheadFactor *= 0.95
	}
	if hasCalls && flags.Has(FCallerSaves) {
		// Saving caller-saved registers around calls is not free.
		mods.CallOverheadFactor *= 1.10
	}
	mods.StaticPredict = flags.Has(FGuessBranchProbability) || flags.Has(FBranchProbabilities)

	return &sim.Version{
		LF:         lf,
		Alloc:      alloc,
		Mods:       mods,
		CodeSize:   codeSize,
		NumOrigins: numOrigins(lf),
		Label:      flags.String(),
	}, nil
}

func lfHasCalls(f *ir.LFunc) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.LCall {
				return true
			}
		}
	}
	return false
}

func collectCallees(f *ir.LFunc, out map[string]bool) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.LCall {
				if _, intrinsic := ir.IsIntrinsic(in.Fn); !intrinsic {
					out[in.Fn] = true
				}
			}
		}
	}
}

func numOrigins(f *ir.LFunc) int {
	max := 0
	for _, b := range f.Blocks {
		if b.Origin >= max {
			max = b.Origin + 1
		}
	}
	return max
}
