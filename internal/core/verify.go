package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"peak/internal/sched"
	"peak/internal/sim"
)

// Golden-output verification (active only under fault injection): every
// compiled non-base version is executed over a short, deterministic
// verification workload and its outputs — return values and final memory —
// are compared against the base "-O3" version's. The paper's flag removals
// are semantics-preserving (every version computes the same results, which
// an empirical sweep over all 38 single-flag removals confirms bit-exactly
// on every benchmark), so any output divergence beyond float tolerance
// means a miscompile, and the flag set is quarantined: removed from the
// search and recorded in TuneResult.Quarantined rather than rated on
// garbage output.
const (
	// verifyInvocations is how many TS invocations the verification
	// workload runs (capped by the dataset size).
	verifyInvocations = 5
	// verifyStepFactor bounds a candidate run at this multiple of the
	// golden run's dynamic instruction count, so a miscompiled runaway
	// loop is killed (sim.ErrStepLimit) instead of hanging the tuner.
	verifyStepFactor = 50
	// verifyRelTol is the relative output tolerance. Flag removals
	// reproduce base outputs bit-exactly here, so the tolerance only has
	// to stay above float noise, far below any real corruption.
	verifyRelTol = 1e-9
)

// goldenRef is the base version's verification reference.
type goldenRef struct {
	rets      []float64            // per-invocation return values
	mem       map[string][]float64 // final array contents
	maxInstrs int64                // largest per-invocation instruction count
}

// runWorkload executes v over the verification workload: fresh memory,
// data and runner streams derived from r.seed only — so the golden run and
// every candidate run see identical inputs regardless of when (or in which
// process) they execute.
func (r *resolver) runWorkload(v *sim.Version, maxSteps int64) (rets []float64, snap map[string][]float64, cycles, maxInstrs int64, err error) {
	mem := sim.NewMemory(r.prog)
	rng := rand.New(rand.NewSource(sched.DeriveSeed(r.seed, "verify/data")))
	runner := sim.NewRunner(r.mach, mem, sched.DeriveSeed(r.seed, "verify/runner"))
	runner.MaxSteps = maxSteps
	ds := r.ds
	if ds.Setup != nil {
		ds.Setup(mem, rng)
	}
	n := verifyInvocations
	if ds.NumInvocations < n {
		n = ds.NumInvocations
	}
	rets = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		args := ds.Args(i, mem, rng)
		ret, st, rerr := runner.Run(v, args)
		if rerr != nil {
			return nil, nil, cycles, maxInstrs, rerr
		}
		rets = append(rets, ret)
		cycles += st.Cycles
		if st.Instrs > maxInstrs {
			maxInstrs = st.Instrs
		}
	}
	names := mem.Names()
	sort.Strings(names)
	return rets, mem.Snapshot(names), cycles, maxInstrs, nil
}

// verify checks v's outputs against the golden reference and reports
// whether it must be quarantined. The reference is built from r.base on
// first use; its simulated time and invocations are returned exactly
// once, with that first verification. The verdict is a pure function of
// the compiled code and the seed — independent of scheduling, caching and
// resume — and candidate run errors (runtime faults, runaway step limits)
// count as failed verification, not as errors.
func (r *resolver) verify(v *sim.Version) (quarantined bool, cycles, inv int64, err error) {
	if r.golden == nil {
		base, err := r.base()
		if err != nil {
			return false, 0, 0, err
		}
		rets, snap, gc, maxInstrs, err := r.runWorkload(base, 0)
		if err != nil {
			// The exempt base version must run cleanly; failure here is a
			// genuine engine bug, not a quarantinable fault.
			return false, 0, 0, fmt.Errorf("golden reference run failed: %w", err)
		}
		r.golden = &goldenRef{rets: rets, mem: snap, maxInstrs: maxInstrs}
		cycles, inv = gc, int64(len(rets))
	}
	g := r.golden
	maxSteps := g.maxInstrs * verifyStepFactor
	if maxSteps < 1_000_000 {
		maxSteps = 1_000_000
	}
	rets, snap, vc, _, runErr := r.runWorkload(v, maxSteps)
	cycles += vc
	inv += int64(len(g.rets))
	quarantined = runErr != nil || !floatsClose(rets, g.rets) || !memClose(snap, g.mem)
	return quarantined, cycles, inv, nil
}

// closeEnough reports a ≈ b within verifyRelTol (relative to the larger
// magnitude, with an absolute floor of 1). NaN matches NaN: an
// uncorrupted version reproduces the base's NaNs exactly.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return diff <= verifyRelTol*scale
}

func floatsClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeEnough(a[i], b[i]) {
			return false
		}
	}
	return true
}

func memClose(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ad := range a {
		bd, ok := b[name]
		if !ok || !floatsClose(ad, bd) {
			return false
		}
	}
	return true
}
