package experiments

import (
	"reflect"
	"strings"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
)

// TestExperimentsRecoverPanics: a job that panics — here a benchmark
// without a program — makes each experiment return an error naming the
// benchmark instead of killing the process, together with the results
// and trace of the jobs before it, folded in input order.
func TestExperimentsRecoverPanics(t *testing.T) {
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	plan := fault.Uniform(0.05, 2004)
	quick := quickBenchmark()
	broken := quickBenchmark()
	broken.Name, broken.Prog = "BROKEN", nil

	for _, tc := range []struct {
		name string
		// run returns the experiment's results (nil for the noise report,
		// which returns no partial text) and its error.
		run func(benches []*bench.Benchmark, env Env) (any, error)
		// prefixOnly: the clean run records events after the grid (the
		// noise report's winner trials), so the failed run's trace is a
		// prefix of it rather than all of it.
		prefixOnly bool
	}{
		{"table 1", func(bs []*bench.Benchmark, env Env) (any, error) {
			return table1(bs, m, []int{10}, &cfg, env)
		}, false},
		{"figure 7", func(bs []*bench.Benchmark, env Env) (any, error) {
			return Figure7(bs, m, &cfg, env)
		}, false},
		{"fault report", func(bs []*bench.Benchmark, env Env) (any, error) {
			return FaultReport(bs, m, &cfg, plan, env)
		}, false},
		{"noise report", func(bs []*bench.Benchmark, env Env) (any, error) {
			_, err := noiseReport(bs, m, &cfg, env)
			return nil, err
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := func() Env {
				return Env{Pool: sched.New(2), Cache: vcache.New(), Trace: trace.NewBuffer(), Metrics: trace.NewMetrics()}
			}
			clean := env()
			want, err := tc.run([]*bench.Benchmark{quick}, clean)
			if err != nil {
				t.Fatal(err)
			}
			failed := env()
			got, err := tc.run([]*bench.Benchmark{quick, broken}, failed)
			if err == nil {
				t.Fatal("panicking job returned no error")
			}
			if msg := err.Error(); !strings.Contains(msg, tc.name+" BROKEN") || !strings.Contains(msg, "panic") {
				t.Errorf("error %q does not name the panicking benchmark", msg)
			}
			if got != nil && !reflect.DeepEqual(got, want) {
				t.Errorf("partial results differ from the clean run of the jobs before the panic:\n got %+v\nwant %+v", got, want)
			}
			wantEv, gotEv := clean.Trace.Events(), failed.Trace.Events()
			if tc.prefixOnly && len(wantEv) > len(gotEv) {
				wantEv = wantEv[:len(gotEv)]
			}
			if len(gotEv) == 0 || !reflect.DeepEqual(gotEv, wantEv) {
				t.Errorf("trace of the jobs before the panic not folded in order: %d events, want %d", len(gotEv), len(wantEv))
			}
		})
	}
}

// TestFigure7WarmStore: Figure 7 reads env.Store for its tunes and
// measurements. With the store nil, cold (empty) and warm (reopened after
// a flush) the entries are identical and so is the trace apart from the
// tier provenance field, which a store adds by design (OBSERVABILITY.md);
// the warm run answers from the memo table.
func TestFigure7WarmStore(t *testing.T) {
	benches := []*bench.Benchmark{quickBenchmark()}
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	dir := t.TempDir()

	run := func(st *store.Store) ([]Fig7Entry, []trace.Event) {
		tb := trace.NewBuffer()
		entries, err := Figure7(benches, m, &cfg, Env{Pool: sched.New(2), Cache: vcache.New(), Store: st, Trace: tb})
		if err != nil {
			t.Fatal(err)
		}
		evs := append([]trace.Event(nil), tb.Events()...)
		for i := range evs {
			evs[i].Tier = ""
		}
		return entries, evs
	}
	wantEntries, wantTrace := run(nil)

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldEntries, coldTrace := run(cold)
	if cs := cold.Stats(); cs.MemoHits != 0 || cs.Pending == 0 {
		t.Fatalf("cold store stats = %+v, want no hits and new records", cs)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}
	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmEntries, warmTrace := run(warm)

	for _, c := range []struct {
		name    string
		entries []Fig7Entry
		trace   []trace.Event
	}{{"cold", coldEntries, coldTrace}, {"warm", warmEntries, warmTrace}} {
		if !reflect.DeepEqual(c.entries, wantEntries) {
			t.Errorf("%s store changed the entries:\n got %+v\nwant %+v", c.name, c.entries, wantEntries)
		}
		if !reflect.DeepEqual(c.trace, wantTrace) {
			t.Errorf("%s store changed the trace beyond the tier field", c.name)
		}
	}
	if ws := warm.Stats(); ws.MemoHits == 0 {
		t.Errorf("warm run took no memo hits: %+v", ws)
	}
}
