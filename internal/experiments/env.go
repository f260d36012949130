package experiments

import (
	"fmt"

	"peak/internal/core"
	"peak/internal/fault"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
)

// Env is the run-wide context every experiment entry point takes: where
// work runs, what it shares and what records it. The zero value is a
// serial, untraced run in which each tuning process keeps a private
// compile cache, nothing is memoized across runs and nothing is
// checkpointed. No field changes any result: the determinism contract
// (ARCHITECTURE.md §3) makes the outputs byte-identical for every Env
// (a Store adds only the tier provenance field to trace events).
type Env struct {
	// Pool shards the work (nil means serial). Experiments run each
	// benchmark as one coarse job and nest the tunes' candidate ratings on
	// the same pool.
	Pool sched.Pool
	// Cache shares compiled versions across the run's tunes and
	// performance measurements (nil gives every tune a private cache and
	// compiles measurements directly). Config.NoCompileCache still
	// disables caching inside the tunes.
	Cache *vcache.Cache
	// Store memoizes rating jobs, performance measurements and noise-grid
	// cells across runs (nil disables the warm start). Faulted tunes are
	// never memoized (see core.Tuner.Store).
	Store *store.Store
	// Journal checkpoints every tune after each Iterative Elimination
	// round and resumes tunes it already holds state for (nil disables
	// checkpointing).
	Journal *fault.Journal
	// Trace receives the run's events and Metrics its counters (nil
	// disables either). Each coarse job records into its own buffer and
	// registry, folded back in input order.
	Trace   *trace.Buffer
	Metrics *trace.Metrics
}

// Tune runs t under env: the pool, cache, store, journal and trace buffer
// come from env (overriding whatever t holds), and a successful result's
// counters are added to env.Metrics.
func (env Env) Tune(t core.Tuner) (*core.TuneResult, error) {
	t.Pool, t.Cache, t.Store, t.Journal, t.Trace = env.Pool, env.Cache, env.Store, env.Journal, env.Trace
	res, err := t.Tune()
	if err == nil {
		res.FillMetrics(env.Metrics)
	}
	return res, err
}

// fanOut runs job(i, jobEnv) for i in [0, len(names)) as coarse jobs on
// env.Pool and concatenates their outputs in input order. jobEnv is env
// with a private trace buffer and metrics registry (each nil when env's
// is), folded into env's in input order once every job has finished, so
// the recorded bytes do not depend on scheduling. A panicking job is
// recovered into an error naming it ("<what> <name>: panic: ..."). On
// the first failed job (in input order) the outputs and trace of the
// jobs before it are still returned and folded, with its error.
func fanOut[T any](env Env, what string, names []string, job func(i int, jobEnv Env) ([]T, error)) ([]T, error) {
	pool := env.Pool
	if pool == nil {
		pool = sched.NewSerial()
	}
	type result struct {
		out []T
		env Env
		err error
	}
	results := make([]result, len(names))
	pool.Map(len(names), func(i int) {
		defer func() {
			if r := recover(); r != nil {
				results[i] = result{err: fmt.Errorf("%s %s: panic: %v", what, names[i], r)}
			}
		}()
		jobEnv := env
		if env.Trace != nil {
			jobEnv.Trace = trace.NewBuffer()
		}
		if env.Metrics != nil {
			jobEnv.Metrics = trace.NewMetrics()
		}
		out, err := job(i, jobEnv)
		results[i] = result{out, jobEnv, err}
	})
	var all []T
	for _, r := range results {
		if r.err != nil {
			return all, r.err
		}
		all = append(all, r.out...)
		env.Trace.Append(r.env.Trace)
		env.Metrics.Merge(r.env.Metrics)
	}
	return all, nil
}
