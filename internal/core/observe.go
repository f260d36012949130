package core

import (
	"math"

	"peak/internal/trace"
)

// baseLabel is the Flag label trace events use for the round's base flag
// set (the candidates are labelled by the flag they switch off; the base
// switches off nothing).
const baseLabel = "(base)"

// emit stamps the tune identity on ev and records it. The engine's
// emission sites run only on the round-reduction goroutine, in candidate
// order, which is what keeps the buffer's contents deterministic; they
// additionally guard on e.tb != nil themselves so the disabled path
// never constructs an Event.
func (e *engine) emit(ev trace.Event) {
	if e.tb == nil {
		return
	}
	ev.Tune = e.id
	e.tb.Emit(ev)
}

// finite maps the non-JSON float values (±Inf, NaN) to -1, the trace
// schema's "undefined" marker. Rating.CIHalf is +Inf below two samples.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// emitCache records one resolution of the precompile walk: a repeat
// lookup is a "hit", a first resolution a "miss" — or "shared" when its
// generated code fingerprints identically to an earlier resolution of
// this tune, in which case Leader names that first flag set. Fresh
// resolutions carry their one-time costs (injected compile retries,
// backoff, verification time).
func (e *engine) emitCache(round, ordinal int, label string, vi versionInfo, fresh bool) {
	ev := trace.Event{Kind: trace.KindCache, Round: round + 1, Ordinal: ordinal, Flag: label}
	if e.store != nil {
		// Tier is provenance: "disk" when the resolution was answered by a
		// persistent-store preload, "memory" when this process compiled or
		// cached it. Emitted only with a store attached, so trace bytes are
		// unchanged when the store is disabled.
		ev.Tier = "memory"
		if vi.fromDisk {
			ev.Tier = "disk"
		}
	}
	if !fresh {
		ev.Outcome = "hit"
	} else {
		ev.Retries = vi.retries
		ev.RetryCycles = vi.retryCycles
		ev.VerifyCycles = vi.verifyCycles
		if first, ok := e.fpFirst[vi.fp128.Lo]; ok {
			ev.Outcome = "shared"
			ev.Leader = first
		} else {
			ev.Outcome = "miss"
			e.fpFirst[vi.fp128.Lo] = label
		}
	}
	e.emit(ev)
}

// emitRate records one accounted rating job, in the reduction's
// candidate order: the rating (method, EVAL, CI half-width), whether it
// converged or ran out of budget, the job's private cycle/invocation
// ledger with its fault-recovery share, and the cumulative tune ledger
// after accounting.
func (e *engine) emitRate(round, ordinal int, label string, r *jobResult) {
	outcome := "budget"
	if r.converged {
		outcome = "converged"
	}
	tier := ""
	if r.memoized {
		tier = "memo"
	}
	e.emit(trace.Event{
		Kind:        trace.KindRate,
		Round:       round + 1,
		Ordinal:     ordinal,
		Flag:        label,
		Method:      r.rating.Method.String(),
		Outcome:     outcome,
		Eval:        finite(r.rating.EVAL),
		CIHalf:      finite(r.rating.CIHalf),
		JobCycles:   r.ctx.cycles,
		RetryCycles: r.ctx.retryCycles,
		Invocations: r.ctx.invocations,
		Retries:     r.ctx.measureRetries,
		Count:       int64(r.jobRetries),
		Cycles:      e.res.TuningCycles,
		Tier:        tier,
	})
}

// emitTuneEnd closes the tune's trace with the final ledger: total
// tuning cycles and invocations, the winning flag set, and the full
// TuneResult counter block (key-sorted by the JSON encoder, so the
// rendering is deterministic).
func (e *engine) emitTuneEnd() {
	r := e.res
	e.emit(trace.Event{
		Kind:        trace.KindTuneEnd,
		Method:      r.MethodUsed.String(),
		Cycles:      r.TuningCycles,
		Invocations: r.Invocations,
		Detail:      r.Best.String(),
		Counts: map[string]int64{
			"cache_hits":         r.CacheHits,
			"cache_lookups":      r.CacheLookups,
			"cache_misses":       r.CacheMisses,
			"compile_retries":    int64(r.CompileRetries),
			"dedup_skips":        int64(r.DedupSkips),
			"escalations":        int64(r.Escalations),
			"job_retries":        int64(r.JobRetries),
			"measure_retries":    int64(r.MeasureRetries),
			"method_switches":    int64(r.MethodSwitches),
			"program_runs":       int64(r.ProgramRuns),
			"quarantined":        int64(len(r.Quarantined)),
			"removed":            int64(len(r.Removed)),
			"rounds":             int64(r.Rounds),
			"shared_code":        int64(r.SharedCode),
			"verify_invocations": r.VerifyInvocations,
			"versions_rated":     int64(r.VersionsRated),
		},
	})
}

// FillMetrics folds the tune's counters into a metrics registry under
// the "core." prefix (one Add per counter, so registries accumulate
// across tunes). No-op when m is nil. The metric names are catalogued in
// OBSERVABILITY.md.
func (r *TuneResult) FillMetrics(m *trace.Metrics) {
	if m == nil {
		return
	}
	m.Add("core.tunes", 1)
	m.Add("core.tuning_cycles", r.TuningCycles)
	m.Add("core.program_runs", int64(r.ProgramRuns))
	m.Add("core.invocations", r.Invocations)
	m.Add("core.versions_rated", int64(r.VersionsRated))
	m.Add("core.rounds", int64(r.Rounds))
	m.Add("core.flags_removed", int64(len(r.Removed)))
	m.Add("core.method_switches", int64(r.MethodSwitches))
	m.Add("core.escalations", int64(r.Escalations))
	m.Add("core.cache_lookups", r.CacheLookups)
	m.Add("core.cache_hits", r.CacheHits)
	m.Add("core.cache_misses", r.CacheMisses)
	m.Add("core.shared_code", int64(r.SharedCode))
	m.Add("core.dedup_skips", int64(r.DedupSkips))
	m.Add("core.quarantined", int64(len(r.Quarantined)))
	m.Add("core.compile_retries", int64(r.CompileRetries))
	m.Add("core.measure_retries", int64(r.MeasureRetries))
	m.Add("core.job_retries", int64(r.JobRetries))
	m.Add("core.verify_invocations", r.VerifyInvocations)
}
