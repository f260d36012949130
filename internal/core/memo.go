package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/store"
	"peak/internal/vcache"
)

// Rating memoization: with a persistent store attached (Tuner.Store), every
// finished rating job records its outcome under a key that names the job's
// complete identity, and a later process whose store holds that key
// short-circuits the simulation entirely, restoring the outcome
// byte-for-byte. Correctness rests on the engine's determinism contract: a
// rating job is a pure function of (code fingerprints, machine, dataset,
// root seed, job key, rating config incl. the resolved noise model), so the
// key below captures exactly that function's inputs and the memoized value
// is exactly what the simulation would have produced. Anything outside the
// contract — fault injection, whose draws consume per-process stream state
// — must never be memoized; the engine refuses to attach a store when
// faults are enabled.

// Memo table namespaces within the persistent store. Exported so the serve
// and experiment layers partition the same store file without colliding.
const (
	// MemoKindRate holds rating-job outcomes (internal/core engine).
	MemoKindRate = "rate"
	// MemoKindMeasure holds MeasurePerformanceStored outcomes.
	MemoKindMeasure = "measure"
	// MemoKindCell holds experiment grid-cell outcomes
	// (internal/experiments).
	MemoKindCell = "cell"
	// MemoKindJob holds finished serve-job artifacts (internal/serve).
	MemoKindJob = "job"
)

// memoVersion prefixes every memo key; bump it when the simulator, the
// rating pipeline or the payload encoding changes meaning, so stale
// records from older builds miss instead of corrupting results.
const memoVersion = "v1"

// MemoDigest renders every Config field that can influence a rating
// outcome on machine m — including the resolved measurement-noise model —
// as a compact stable string for memo keys. Floats are rendered as IEEE
// bit patterns so the digest never loses precision to formatting. Faults
// are deliberately excluded: faulted ratings are never memoized.
func (c *Config) MemoDigest(m *machine.Machine) string {
	nm := NoiseModelFor(c, m)
	fb := func(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
	return fmt.Sprintf("w=%d,vt=%s,mvt=%s,ok=%s,mi=%d,src=%d,brbr=%t,insp=%t,mc=%d,mds=%s,mcomp=%d,mpv=%s,it=%s,seed=%d,conv=%d,conf=%s,cirel=%s,esc=%d,ncc=%t,noise=%s.%s.%s.%s.%d.%s.%d.%s",
		c.Window, fb(c.VarThreshold), fb(c.MBRVarThreshold), fb(c.OutlierK),
		c.MaxInvPerVersion, c.SaveRestoreCyclesPerElem, c.BasicRBR, c.RBRInspector,
		c.MaxContexts, fb(c.MinDominantShare), c.MaxComponents, fb(c.MBRMaxProfileVar),
		fb(c.ImprovementThreshold), c.Seed, c.Convergence, fb(c.confidence()),
		fb(c.CIRelThreshold), c.EscalationBudget, c.NoCompileCache,
		fb(nm.Jitter), fb(nm.SpikeProb), fb(nm.SpikeScale), fb(nm.DriftAmp), nm.DriftPeriod,
		fb(nm.BurstProb), nm.BurstLen, fb(nm.BurstScale))
}

// rateMemoKey names one rating job's complete identity. The job key
// already encodes round, method, flag and panic-retry generation; the
// fingerprints pin the exact code bodies; the root seed pins every derived
// stream; the digest pins the rating configuration and noise model.
func (e *engine) rateMemoKey(jobKey string, m Method, expFP, baseFP vcache.FP128, escalatable bool) string {
	return fmt.Sprintf("%s/%s/%s/%s/%s/seed=%d/job=%s/m=%s/exp=%s/base=%s/esc=%t/cfg=%s",
		memoVersion, e.t.Bench.Name, e.t.Mach.Name, e.t.Dataset.Name, e.ts.Name,
		e.rootSeed, jobKey, m, expFP, baseFP, escalatable, e.cfg.MemoDigest(e.t.Mach))
}

// rateMemoPayload is the binary layout of one memoized rating-job outcome:
// every field account() and emitRate() consume, floats as IEEE bits for an
// exact round trip (CIHalf is +Inf below two samples, which JSON could not
// carry).
// rateMemoLen is the exact rate-memo payload size: nine uint64 fields
// (method, EVAL, VAR, samples, outliers, CI half-width, cycles,
// invocations, runs) plus three flag bytes.
const rateMemoLen = 9*8 + 3

func encodeRateMemo(r *jobResult) []byte {
	b := make([]byte, 0, rateMemoLen)
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	bit := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	u64(uint64(r.rating.Method))
	f64(r.rating.EVAL)
	f64(r.rating.VAR)
	u64(uint64(int64(r.rating.Samples)))
	u64(uint64(int64(r.rating.Outliers)))
	f64(r.rating.CIHalf)
	bit(r.rating.Abandoned)
	bit(r.converged)
	bit(r.escalated)
	u64(uint64(r.ctx.cycles))
	u64(uint64(r.ctx.invocations))
	u64(uint64(int64(r.ctx.runs)))
	return b
}

// restoreRateMemo rebuilds a job result from a memo payload, reporting
// false (fall through to real simulation) on any size mismatch.
func restoreRateMemo(r *jobResult, b []byte) bool {
	if len(b) != rateMemoLen {
		return false
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	bit := func() bool {
		v := b[0] != 0
		b = b[1:]
		return v
	}
	r.rating.Method = Method(u64())
	r.rating.EVAL = f64()
	r.rating.VAR = f64()
	r.rating.Samples = int(int64(u64()))
	r.rating.Outliers = int(int64(u64()))
	r.rating.CIHalf = f64()
	r.rating.Abandoned = bit()
	r.converged = bit()
	r.escalated = bit()
	r.ctx.cycles = int64(u64())
	r.ctx.invocations = int64(u64())
	r.ctx.runs = int(int64(u64()))
	return true
}

// MeasurePerformanceStored is MeasurePerformance resolving the compilation
// through a compile cache and the measurement through the persistent
// store. The measured cycles are identical for any cache and store:
// compilation is deterministic and cached versions are frozen, so the
// cache only removes repeat compile work when a driver measures the same
// (benchmark, flags, machine) combination more than once (a nil cache
// compiles directly). With a store the measured cycles are memoized under
// the resolved code's 128-bit fingerprint plus the (benchmark, dataset,
// machine) identity, so a warm process answers repeat measurements without
// running the simulator at all. Measurement here is noise-free and
// deterministic, so the memoized value is exactly what the simulation would
// produce; on any key miss the real simulation runs and its result is
// recorded for the next flush. A nil store always simulates.
func MeasurePerformanceStored(b *bench.Benchmark, ds *bench.Dataset, m *machine.Machine,
	flags opt.FlagSet, cache *vcache.Cache, st *store.Store) (tsCycles, programCycles int64, err error) {
	r, err := cache.Resolve(
		vcache.Key{Prog: vcache.ProgramKey(b.Prog), Fn: b.TS.Name, Flags: flags, Machine: m.Name},
		func() (*sim.Version, error) { return opt.Compile(b.Prog, b.TS, flags, m) })
	if err != nil {
		return 0, 0, fmt.Errorf("measure %s: %w", b.Name, err)
	}
	if st == nil {
		return runMeasurement(b, ds, m, flags, r.V)
	}
	key := fmt.Sprintf("%s/%s/%s/%s/%s/fp=%s", memoVersion, b.Name, m.Name, ds.Name, flags, r.FP)
	if st.LookupMemo(MemoKindMeasure, key, func(p []byte) bool {
		if len(p) != 16 {
			return false
		}
		tsCycles = int64(binary.LittleEndian.Uint64(p))
		programCycles = int64(binary.LittleEndian.Uint64(p[8:]))
		return true
	}) {
		return tsCycles, programCycles, nil
	}
	tsCycles, programCycles, err = runMeasurement(b, ds, m, flags, r.V)
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, 0, 16)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(tsCycles))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(programCycles))
	st.RecordMemo(MemoKindMeasure, key, payload)
	return tsCycles, programCycles, nil
}
