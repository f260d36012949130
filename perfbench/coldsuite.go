package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"peak/internal/analysis"
	"peak/internal/bench"
	"peak/internal/cli"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// machineNames are the two simulated machines every workload covers.
var machineNames = []string{"sparc2", "p4"}

// setupsPerPass is how many times a pass builds its system before using
// the last build; each build is one setup_s sample. Set-up takes a
// millisecond or less, so the median needs many samples to be steady.
const setupsPerPass = 100

// coldState carries results across the passes of one cold-suite run.
type coldState struct {
	// last is each op's most recent untraced TuneResult: the traced pass
	// replays its rounds in the precompile leg.
	last map[string]*core.TuneResult
	// expect is each op's reference answer, measured by coldPrepare.
	expect map[string]expectedAnswer
}

// expectedAnswer is an op's reference best flags with the ref-dataset TS
// cycles of -O3 and of those flags, as measured in this run.
type expectedAnswer struct {
	best        opt.FlagSet
	base, tuned int64
	err         error
}

// coldPrepare measures, once per run and before any pass, the ref-dataset
// cycles of -O3 and of each op's reference best flags. A tune's ref
// cycles are a function of its best flags alone, so an op whose best flags
// equal the reference's gets these figures in its report, and the report
// check then compares them with the reference's answer line too.
func coldPrepare(e *env) error {
	sys, err := buildColdSystem(e.nproc)
	if err != nil {
		return err
	}
	ops := coldOps(sys, 0)
	answers := make([]expectedAnswer, len(ops))
	sys.pool.Map(len(ops), func(i int) {
		o := ops[i]
		a := &answers[i]
		a.best, a.err = referenceBest(e.refs[o.key()+"/auto"])
		if a.err == nil {
			a.base, _, a.err = core.MeasurePerformance(o.b, o.b.Ref, o.m, opt.O3())
		}
		if a.err == nil {
			a.tuned, _, a.err = core.MeasurePerformance(o.b, o.b.Ref, o.m, a.best)
		}
	})
	e.cold.last = map[string]*core.TuneResult{}
	e.cold.expect = map[string]expectedAnswer{}
	for i, o := range ops {
		e.cold.expect[o.key()] = answers[i]
	}
	return nil
}

// referenceBest parses the "best flags:" line of a reference report.
func referenceBest(report string) (opt.FlagSet, error) {
	for _, line := range strings.Split(report, "\n") {
		if flags, ok := strings.CutPrefix(line, "best flags:"); ok {
			return opt.ParseFlagSet(flags)
		}
	}
	return 0, fmt.Errorf("reference report has no best flags line")
}

// coldSystem is what the cold-suite builds before its first op.
type coldSystem struct {
	kernels []*bench.Benchmark
	machs   []*machine.Machine
	pool    sched.Pool
	cache   *vcache.Cache
}

func buildColdSystem(nproc int) (*coldSystem, error) {
	s := &coldSystem{kernels: workloads.All(), pool: sched.New(nproc), cache: vcache.New()}
	for _, n := range machineNames {
		m, ok := machine.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", n)
		}
		s.machs = append(s.machs, m)
	}
	return s, nil
}

// timedSetup builds a system setupsPerPass times, recording each build's
// duration, and returns the last one.
func timedSetup[T any](p *passResult, build func() (T, error)) (T, error) {
	var sys T
	var err error
	for i := 0; i < setupsPerPass; i++ {
		t0 := time.Now()
		sys, err = build()
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if err != nil {
			return sys, err
		}
	}
	return sys, nil
}

// coldOp is one cold-suite op: profile the kernel on train, then tune it
// on train along the consultant's path.
type coldOp struct {
	b *bench.Benchmark
	m *machine.Machine
}

func (o coldOp) key() string { return o.b.Name + "/" + o.m.Name }

// coldOps lists the 28 ops (every kernel on every machine) in the order a
// seed draws.
func coldOps(s *coldSystem, seed int64) []coldOp {
	var ops []coldOp
	for _, m := range s.machs {
		for _, b := range s.kernels {
			ops = append(ops, coldOp{b, m})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func newTuner(o coldOp, prof *profiling.Profile, pool sched.Pool, cache *vcache.Cache) *core.Tuner {
	return &core.Tuner{Bench: o.b, Mach: o.m, Dataset: o.b.Train, Cfg: core.DefaultConfig(),
		Profile: prof, Pool: pool, Cache: cache}
}

// coldSuitePass runs the 28 ops in sequence on one fresh compile cache and
// one pool of nproc workers. A traced pass additionally compiles each op's
// flag sets in a precompile leg, times each layer, and wraps the pool.
func coldSuitePass(e *env, k int, traced bool) *passResult {
	p := &passResult{}
	sys, err := timedSetup(p, func() (*coldSystem, error) { return buildColdSystem(e.nproc) })
	if err != nil {
		p.attempted++
		p.fail("setup: %v", err)
		return p
	}
	ops := coldOps(sys, e.passSeed(k))
	results := make([]*core.TuneResult, len(ops))

	var tp *timingPool
	var leg legTimes
	var profileS, tuneS, mcycles, invocations float64
	uncovered := int64(0)
	if traced {
		tp = newTimingPool(sys.pool)
		p.layers = layers{}
	}

	start := time.Now()
	for i, o := range ops {
		p.attempted++
		t0 := time.Now()
		prof, err := profiling.Run(o.b, o.b.Train, o.m)
		if err != nil {
			p.fail("%s: profile: %v", o.key(), err)
			continue
		}
		if !traced {
			res, err := newTuner(o, prof, sys.pool, sys.cache).Tune()
			p.opMs = append(p.opMs, float64(time.Since(t0))/1e6)
			if err != nil {
				p.fail("%s: tune: %v", o.key(), err)
				continue
			}
			results[i] = res
			e.cold.last[o.key()] = res
			continue
		}
		t1 := time.Now()
		profileS += t1.Sub(t0).Seconds()
		prev := e.cold.last[o.key()]
		if prev == nil {
			p.fail("%s: no untraced result to replay", o.key())
			continue
		}
		if err := precompile(sys.cache, o, prof, prev, &leg); err != nil {
			p.fail("%s: precompile: %v", o.key(), err)
			continue
		}
		misses := sys.cache.Stats().Misses
		cycles := tp.Stats().Cycles.Load()
		t2 := time.Now()
		res, err := newTuner(o, prof, tp, sys.cache).Tune()
		tuneS += time.Since(t2).Seconds()
		if err != nil {
			p.fail("%s: tune: %v", o.key(), err)
			continue
		}
		if u := sys.cache.Stats().Misses - misses; u > 0 {
			// The tune compiled flag sets the leg missed; their compile time
			// went into engine.other_s instead of compile.busy_s.
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced tune compiled %d flag sets the precompile leg missed\n", o.key(), u)
			uncovered += u
		}
		mcycles += float64(tp.Stats().Cycles.Load()-cycles) / 1e6
		invocations += float64(res.Invocations)
		results[i] = res
	}
	p.wall = time.Since(start).Seconds()

	mismatches := 0
	var lookups, hits, misses, shared, skips, rated float64
	for i, o := range ops {
		res := results[i]
		if res == nil {
			continue
		}
		x := e.cold.expect[o.key()]
		if x.err != nil {
			p.fail("%s: reference answer: %v", o.key(), x.err)
			continue
		}
		if res.Best != x.best {
			p.fail("%s: best flags %s, reference %s", o.key(), res.Best, x.best)
			continue
		}
		v := checkReport(e.refs, o.key()+"/auto", cli.FormatTuneReport(o.b, o.m, res, false, x.base, x.tuned))
		if !v.ok {
			p.fail("%s", v.why)
			continue
		}
		if v.ledgerMismatch {
			mismatches++
		}
		lookups += float64(res.CacheLookups)
		hits += float64(res.CacheHits)
		misses += float64(res.CacheMisses)
		shared += float64(res.SharedCode)
		skips += float64(res.DedupSkips)
		rated += float64(res.VersionsRated)
	}
	if !traced {
		return p
	}

	l := p.layers
	compileS := leg.compile.Seconds()
	resolveS := leg.total.Seconds() - compileS
	tp.fill(l)
	engineS := tuneS - l["rate.map_s"]
	l["profile.calls"] = float64(len(ops))
	l["profile.busy_s"] = profileS
	l["compile.calls"] = float64(leg.calls)
	l["compile.busy_s"] = compileS
	l["compile.ms_per_call"] = ratio(1000*compileS, float64(leg.calls))
	l["compile.uncovered"] = float64(uncovered)
	l["vcache.resolve_s"] = resolveS
	l["vcache.hit_ratio"] = ratio(hits, lookups)
	l["vcache.shared_ratio"] = ratio(shared, misses)
	l["dedup.skip_ratio"] = ratio(skips, skips+rated)
	l["engine.other_s"] = engineS
	l["sim.mcycles"] = mcycles
	l["sim.invocations"] = invocations
	l["sim.mcycles_per_s"] = ratio(mcycles, tuneS)
	l["tune.ledger_mismatch"] = float64(mismatches)
	l["trace.components_ratio"] = ratio(profileS+compileS+resolveS+l["rate.map_s"]+engineS, p.wall)
	if uncovered > 0 {
		// The compile / engine split of this pass is wrong: report it as 0
		// rather than as a plausible figure.
		l["compile.busy_s"], l["compile.ms_per_call"], l["engine.other_s"] = 0, 0, 0
	}
	return p
}

// legTimes accumulates the precompile leg: total time (program rebuild,
// cache keys, Resolve) and the opt.Compile calls inside it.
type legTimes struct {
	total, compile time.Duration
	calls          int
}

// precompile resolves through cache every flag set a tune of op will ask
// for, given that tune's rounds and removals (prev): round r rates
// O3 minus Removed[:r] and that set minus each flag not yet removed. It
// rebuilds the tuned program exactly as the engine does (instrumentation
// with the profile's kept counters), so the engine's later lookups hit
// these entries and the tune itself compiles nothing.
func precompile(cache *vcache.Cache, o coldOp, prof *profiling.Profile, prev *core.TuneResult, lt *legTimes) error {
	t0 := time.Now()
	defer func() { lt.total += time.Since(t0) }()
	keep := map[int]bool{}
	if prof.Model != nil {
		keep = prof.Model.KeepCounters
	}
	ts := analysis.StripCounters(analysis.Instrument(o.b.TS), keep)
	prog := o.b.Prog.Clone()
	prog.AddFunc(ts)
	progKey := vcache.ProgramKey(prog)

	resolve := func(fs opt.FlagSet) error {
		key := vcache.Key{Prog: progKey, Fn: ts.Name, Flags: fs, Machine: o.m.Name}
		_, err := cache.Resolve(key, func() (*sim.Version, error) {
			c0 := time.Now()
			v, err := opt.Compile(prog, ts, fs, o.m)
			lt.compile += time.Since(c0)
			lt.calls++
			return v, err
		})
		return err
	}
	cur, cands := opt.O3(), opt.AllFlags()
	for r := 0; r < prev.Rounds; r++ {
		if err := resolve(cur); err != nil {
			return err
		}
		for _, f := range cands {
			if err := resolve(cur.Without(f)); err != nil {
				return err
			}
		}
		if r < len(prev.Removed) {
			f := prev.Removed[r]
			cur = cur.Without(f)
			kept := cands[:0:0]
			for _, c := range cands {
				if c != f {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
	}
	return nil
}
