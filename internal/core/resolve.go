package core

import (
	"fmt"

	"peak/internal/analysis"
	"peak/internal/bench"
	"peak/internal/fault"
	"peak/internal/ir"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/vcache"
)

// tuningProgram builds the program tuning compiles: the benchmark's
// program plus an instrumented copy of its tuning section that keeps only
// the counters the component model needs ("the unnecessary
// instrumentation code for the merged blocks is removed", §2.3); other
// methods strip all counters.
func tuningProgram(b *bench.Benchmark, p *profiling.Profile) (*ir.Program, *ir.Func) {
	keep := map[int]bool{}
	if p.Model != nil {
		keep = p.Model.KeepCounters
	}
	ts := analysis.StripCounters(analysis.Instrument(b.TS), keep)
	prog := b.Prog.Clone()
	prog.AddFunc(ts)
	return prog, ts
}

// versionInfo is a resolved compilation: the frozen version, its full
// content fingerprint (whose low half, vcache.Fingerprint, groups code for
// dedup and trace leader maps), whether a persistent-store preload
// answered it, and — with fault injection on — whether golden-output
// verification flagged it as miscompiled. The trailing fields record the
// resolution's one-time costs (injected compile retries, their backoff,
// verification time and invocations); they are pure functions of the
// compile identity, so they are the same whichever call resolved the flag
// set first.
type versionInfo struct {
	v           *sim.Version
	fp128       vcache.FP128
	fromDisk    bool
	quarantined bool

	retries      int
	retryCycles  int64
	verifyCycles int64
	verifyInv    int64
}

// resolver turns a flag set into a frozen, fingerprinted version of one
// function on one machine — the paper's experimental version. It is the
// one place compilation meets the fault plan. The tuning engine and the
// adaptive tuner each keep their own per-run memo around it; it remembers
// nothing itself beyond the compile cache's entries and the golden
// reference. Not safe for concurrent use: the engine calls it under its
// lock, the adaptive tuner from one goroutine.
type resolver struct {
	prog *ir.Program
	fn   *ir.Func
	mach *machine.Machine
	// progKey is the cache key's program identity, salted with the fault
	// plan's fingerprint: a flag set miscompiled under one plan must never
	// collide in a shared cache with the same flag set compiled cleanly (a
	// fault-free tune, a different plan, or the final deployment compile).
	progKey uint64
	cache   *vcache.Cache // nil compiles without memoizing
	stages  *opt.Stages   // nil runs every HIR stage
	faults  *fault.Plan   // nil when fault injection is off

	// The verification workload: every verification run derives its
	// streams from ds and seed only. base supplies the "-O3" version the
	// golden reference is built from, through the caller's own memo, so
	// the base resolves (and is counted) like any other lookup.
	ds     *bench.Dataset
	seed   int64
	base   func() (*sim.Version, error)
	golden *goldenRef
}

// newResolver returns a resolver compiling fn of prog for m under plan (a
// zero plan turns fault injection off). Callers attach the cache, stage
// memo and base supplier they use.
func newResolver(prog *ir.Program, fn *ir.Func, m *machine.Machine, plan *fault.Plan, ds *bench.Dataset, seed int64) *resolver {
	r := &resolver{prog: prog, fn: fn, mach: m, progKey: vcache.ProgramKey(prog), ds: ds, seed: seed}
	if !plan.IsZero() {
		r.faults = plan
		r.progKey ^= plan.Fingerprint()
	}
	return r
}

// resolve compiles, freezes and fingerprints fn under fs, through the
// cache. With fault injection enabled it additionally:
//
//   - draws the flag set's injected transient compile failures — a pure
//     function of the compile identity, so retry counts are independent of
//     scheduling and caching — and absorbs them up to the retry bound,
//     charging deterministic backoff time;
//   - lets the plan miscompile the compilation (fault.Corrupt inside the
//     compile closure, so a corrupted artifact is what lands in the cache
//     under the plan-salted program key). The base "-O3" is exempt: it is
//     the trusted production baseline golden outputs come from;
//   - verifies every non-base compilation against the golden reference and
//     marks failures quarantined.
func (r *resolver) resolve(fs opt.FlagSet) (versionInfo, error) {
	key := vcache.Key{Prog: r.progKey, Fn: r.fn.Name, Flags: fs, Machine: r.mach.Name}
	var vi versionInfo
	var idKey string
	if r.faults != nil {
		idKey = fmt.Sprintf("%d/%s/%s/%s", key.Prog, key.Fn, fs, key.Machine)
		n := r.faults.CompileFailures(idKey)
		if n > r.faults.CompileRetries() {
			return versionInfo{}, fmt.Errorf("compile %s: injected compiler crash persisted: %w", fs, fault.ErrRetriesExhausted)
		}
		vi.retries = n
		for i := 0; i < n; i++ {
			vi.retryCycles += r.faults.Backoff(i)
		}
	}
	verify := r.faults != nil && fs != opt.O3()
	res, err := r.cache.Resolve(key, func() (*sim.Version, error) {
		v, err := r.stages.Compile(r.prog, r.fn, fs, r.mach)
		if err == nil && verify && r.faults.Miscompiles(idKey) {
			fault.Corrupt(v, sched.DeriveSeed(r.faults.Seed, "corrupt/"+idKey))
		}
		return v, err
	})
	if err != nil {
		return versionInfo{}, fmt.Errorf("compile %s: %w", fs, err)
	}
	vi.v, vi.fp128, vi.fromDisk = res.V, res.FP, res.FromDisk
	if verify {
		vi.quarantined, vi.verifyCycles, vi.verifyInv, err = r.verify(vi.v)
		if err != nil {
			return versionInfo{}, err
		}
		if vi.quarantined {
			r.cache.MarkQuarantined(key)
		}
	}
	return vi, nil
}
