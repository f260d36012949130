package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"peak/internal/machine"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

func swimSparc2(t *testing.T) (coldOp, *profiling.Profile) {
	t.Helper()
	b, ok := workloads.ByName("SWIM")
	if !ok {
		t.Fatal("no SWIM kernel")
	}
	m, ok := machine.ByName("sparc2")
	if !ok {
		t.Fatal("no sparc2 machine")
	}
	o := coldOp{b, m}
	prof, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	return o, prof
}

// The timing wrapper must not change what a tune computes: the same best
// flags and the same ledger as the bare pool.
func TestTimingPoolTransparent(t *testing.T) {
	o, prof := swimSparc2(t)
	bare, err := newTuner(o, prof, sched.New(2), vcache.New()).Tune()
	if err != nil {
		t.Fatal(err)
	}
	tp := newTimingPool(sched.New(2))
	timed, err := newTuner(o, prof, tp, vcache.New()).Tune()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, timed) {
		t.Fatalf("tune through the timing pool differs:\nbare  %+v\ntimed %+v", bare, timed)
	}
	if tp.jobs.Load() == 0 || tp.mapCalls.Load() == 0 {
		t.Fatalf("timing pool recorded nothing: %d jobs, %d Map calls", tp.jobs.Load(), tp.mapCalls.Load())
	}
}

// The precompile leg must compile every flag set the tune resolves, so
// the traced tune itself adds no cache miss.
func TestPrecompileCoversTune(t *testing.T) {
	o, prof := swimSparc2(t)
	prev, err := newTuner(o, prof, sched.New(2), vcache.New()).Tune()
	if err != nil {
		t.Fatal(err)
	}
	cache := vcache.New()
	var leg legTimes
	if err := precompile(cache, o, prof, prev, &leg); err != nil {
		t.Fatal(err)
	}
	if leg.calls == 0 || int64(leg.calls) != cache.Stats().Misses {
		t.Fatalf("leg made %d compiles for %d cache misses", leg.calls, cache.Stats().Misses)
	}
	before := cache.Stats().Misses
	res, err := newTuner(o, prof, sched.New(2), cache).Tune()
	if err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats().Misses; after != before {
		t.Fatalf("tune compiled %d flag sets the precompile leg missed", after-before)
	}
	if res.Best != prev.Best {
		t.Fatalf("best flags changed: %s vs %s", res.Best, prev.Best)
	}
}

// The serve-mix request sequence depends on the seed alone, and has the
// shape the workload promises.
func TestPlanMixIsPureFunctionOfSeed(t *testing.T) {
	a, b := planMix(7), planMix(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, planMix(8)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	kernels := map[string]bool{}
	cold := map[string]bool{}
	perMachine, perMethod := map[string]int{}, map[string]int{}
	for _, s := range a.cold {
		kernels[s.Bench] = true
		cold[s.key()] = true
		perMachine[s.Machine]++
		perMethod[s.Method]++
	}
	n := len(workloads.Names())
	if len(a.cold) != n || len(kernels) != n {
		t.Fatalf("phase 1 has %d requests over %d kernels, want %d of each", len(a.cold), len(kernels), n)
	}
	if perMachine["sparc2"] != n/2 || perMethod["auto"] != n/2 {
		t.Fatalf("phase 1 is unbalanced: machines %v, methods %v", perMachine, perMethod)
	}
	if len(a.dup) < minDupRequests {
		t.Fatalf("%d duplicate requests, want at least %d", len(a.dup), minDupRequests)
	}
	if _, err := tailPercentile(make([]float64, len(a.dup)), 0.9); err != nil {
		t.Fatalf("duplicates cannot carry a p90: %v", err)
	}
	dups, replays := map[string]int{}, map[string]int{}
	for _, s := range a.dup {
		if !cold[s.key()] {
			t.Fatalf("duplicate %s was never requested cold", s.key())
		}
		dups[s.key()]++
	}
	for k, c := range dups {
		if c != len(a.dup)/n || len(dups) != n {
			t.Fatalf("duplicates are uneven: %s requested %d times of %d over %d specs", k, c, len(a.dup), len(dups))
		}
	}
	subsets := 0
	for _, s := range a.after {
		if s.Subset {
			subsets++
			if cold[s.key()] {
				t.Fatalf("subset spec %s was requested before the restart", s.key())
			}
		} else if !cold[s.key()] {
			t.Fatalf("replay %s was never requested before the restart", s.key())
		} else {
			replays[s.key()]++
		}
	}
	if len(replays) != n || len(a.after) != 2*n {
		t.Fatalf("after the restart: %d requests replaying %d specs, want each of %d once plus its subset", len(a.after), len(replays), n)
	}
	if subsets != n {
		t.Fatalf("%d subset specs after the restart, want one per kernel", subsets)
	}
}

// A tail percentile needs at least minBeyond samples beyond its rank.
func TestTailPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	if _, err := tailPercentile(xs(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was not refused")
	}
	got, err := tailPercentile(xs(100), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := tailPercentile(xs(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was not refused")
	}
}

// Every spec a workload can issue has a reference report.
func TestReferenceCoversCatalogue(t *testing.T) {
	refs, err := loadReference("reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range workloads.Names() {
		for _, m := range machineNames {
			for _, method := range []string{"auto", forcedMethod} {
				for _, subset := range []bool{false, true} {
					k := specRef{Bench: b, Machine: m, Method: method, Subset: subset}.key()
					if _, ok := refs[k]; !ok {
						t.Errorf("no reference for %s", k)
					}
				}
			}
		}
	}
	swim := refs["SWIM/p4/auto"]
	if answer, _ := splitReport(swim); !strings.Contains(answer, "improvement 53.1%") {
		t.Errorf("SWIM/p4 reference answer %q lacks the documented 53.1%%", answer)
	}
	art := refs["ART/p4/auto"]
	if answer, _ := splitReport(art); !strings.Contains(answer, "improvement 92.0%") {
		t.Errorf("ART/p4 reference answer %q lacks the documented 92.0%%", answer)
	}
	if v := checkReport(refs, "SWIM/p4/auto", swim); !v.ok || v.ledgerMismatch {
		t.Errorf("a reference does not match itself: %+v", v)
	}
}

// A restart that fails must fail every phase-3 request, not crash the
// pass, in a traced pass as in an untraced one.
func TestServeMixRestartFailureFailsPhase3(t *testing.T) {
	refs, err := loadReference("reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	swim := specRef{Bench: "SWIM", Machine: "sparc2", Method: "auto"}
	subset := swim
	subset.Subset = true
	plan := mixPlan{cold: []specRef{swim}, dup: []specRef{swim}, after: []specRef{swim, subset}}
	// Server 2's journal is a directory, which cannot be read.
	breakJournal := func(dir string, nproc int) (*serveNode, error) {
		jpath := filepath.Join(dir, "journal.jsonl")
		if err := os.Remove(jpath); err != nil {
			return nil, err
		}
		if err := os.Mkdir(jpath, 0o755); err != nil {
			return nil, err
		}
		n, err := reopenNode(dir, nproc)
		if err == nil {
			n.stop()
			t.Error("server 2 booted over an unreadable journal")
		}
		return n, err
	}
	for _, traced := range []bool{false, true} {
		e := &env{seed: 1, nproc: 2, refs: refs, workDir: t.TempDir()}
		p := runServeMix(e, 0, traced, plan, breakJournal)
		if p.attempted != 4 || len(p.failed) != len(plan.after) {
			t.Fatalf("traced=%v: %d attempted, failed %q; want 4 attempted and the %d phase-3 requests failed",
				traced, p.attempted, p.failed, len(plan.after))
		}
		for _, msg := range p.failed {
			if !strings.Contains(msg, "restart") {
				t.Errorf("traced=%v: failure %q does not name the restart", traced, msg)
			}
		}
		if traced && (p.layers["serve.boot_ms"] != 0 || p.layers["serve.restart_ms"] != 0) {
			t.Errorf("traced pass reports a restart that failed: %v", p.layers)
		}
	}
}

// The metrics the program prints must be the ones BENCHMARK.json declares,
// by name and unit and in the same order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json declares %v, the program prints %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json declares %v, the program prints %v", decl.PerLayer, perLayer)
	}
}
