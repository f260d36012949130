// Command perfbench is the repository's benchmark of record. It runs one
// of two seeded workloads against the PEAK packages — a cold tune of the
// whole suite, and a closed-loop request mix against the tuning service
// over localhost HTTP — checks every output against a reference, and
// prints its metrics as one JSON line.
//
// Usage (from the repository root; run.py builds and invokes it):
//
//	perfbench --workload cold-suite|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and reports the per-layer metrics,
// timed from this package around calls into each layer's public functions.
// README.md in this directory is the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// layers holds one pass's per-layer figures by metric name.
type layers map[string]float64

// passResult is what one pass of a workload measured.
type passResult struct {
	wall      float64   // s: the workload's fixed op sequence
	setup     []float64 // s: each set-up performed in the pass
	opMs      []float64 // ms: latency of each op
	heapMiB   float64   // live Go heap level exceeded for a tenth of the pass
	attempted int
	failed    []string // one message per failed op
	layers    layers   // traced passes only
}

func (p *passResult) fail(format string, args ...any) {
	p.failed = append(p.failed, fmt.Sprintf(format, args...))
}

// env is the state shared by the passes of one run.
type env struct {
	seed    int64
	nproc   int
	refs    map[string]string
	workDir string // scratch space inside the checkout, removed at exit
	cold    coldState
}

// passSeed derives pass k's input seed from the run seed, so the passes
// of one run draw different inputs and the same seed repeats them all.
func (e *env) passSeed(k int) int64 { return e.seed*1_000_003 + int64(k) }

type workload struct {
	name string
	// prepare, when set, runs once before the first pass, outside the
	// measured time (reference measurements the output checks need).
	prepare func(e *env) error
	pass    func(e *env, k int, traced bool) *passResult
}

var workloadList = []workload{
	{"cold-suite", coldPrepare, coldSuitePass},
	{"serve-mix", nil, serveMixPass},
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"heap_p90_mb", "MiB"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics every workload reports with --trace 1; a layer
// the workload does not reach reads 0.
var perLayer = []metricDef{
	{"trace.overhead_ratio", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.components_ratio", "ratio"},
	{"profile.calls", "count"},
	{"profile.busy_s", "s"},
	{"compile.calls", "count"},
	{"compile.busy_s", "s"},
	{"compile.ms_per_call", "ms"},
	{"compile.uncovered", "count"},
	{"vcache.resolve_s", "s"},
	{"vcache.hit_ratio", "ratio"},
	{"vcache.shared_ratio", "ratio"},
	{"dedup.skip_ratio", "ratio"},
	{"rate.jobs", "count"},
	{"rate.busy_s", "s"},
	{"rate.wait_s", "s"},
	{"rate.map_s", "s"},
	{"sched.utilization", "ratio"},
	{"engine.other_s", "s"},
	{"sim.mcycles", "Mcycles"},
	{"sim.invocations", "count"},
	{"sim.mcycles_per_s", "Mcycles/s"},
	{"tune.ledger_mismatch", "count"},
	{"store.open_ms", "ms"},
	{"serve.boot_ms", "ms"},
	{"serve.drain_ms", "ms"},
	{"store.preloaded", "count"},
	{"store.restored_jobs", "count"},
	{"store.bytes", "bytes"},
	{"journal.bytes", "bytes"},
	{"memo.hits", "count"},
	{"memo.hit_ratio", "ratio"},
	{"http.post_ms", "ms"},
	{"http.get_ms", "ms"},
	{"serve.queued_ms", "ms"},
	{"serve.polls_per_req", "count"},
	{"serve.pool_utilization", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.dup_p50_ms", "ms"},
	{"serve.dup_p90_ms", "ms"},
	{"serve.restart_ms", "ms"},
	{"serve.restored_p50_ms", "ms"},
	{"serve.memo_p50_ms", "ms"},
	{"serve.unclassified", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"alloc_mb", "MiB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-suite or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed draws the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	captureSubsets := flag.Bool("capture-subsets", false, "print reference reports for the catalogue's flag-subset specs and exit")
	drift := flag.String("drift", "", "compile BENCH/machine under -O3 30 times, print the number of distinct code fingerprints and exit")
	flag.Parse()

	if *drift != "" {
		const compiles = 30
		n, err := fingerprintDrift(*drift, compiles)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s: %d compiles of -O3, %d distinct fingerprints\n", *drift, compiles, n)
		return
	}
	if *captureSubsets {
		if err := captureSubsetReferences(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	refs, err := loadReference(referencePath)
	if err != nil {
		fatalf("%v", err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{seed: *seed, nproc: runtime.NumCPU(), refs: refs, workDir: work}
	out, err := run(w, e, *seconds, *traceFlag == 1)
	os.RemoveAll(work)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// minPasses is the fewest passes a run makes, whatever its budget: a
// median of one pass is that pass's noise, and a traced run needs one
// untraced and one traced pass.
const minPasses = 2

// run repeats passes of w until the next one would overrun the budget
// (alternating untraced and traced passes when tracing) and reduces them
// to the reported metrics.
func run(w *workload, e *env, seconds float64, trace bool) (*output, error) {
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}
	start := time.Now()
	var plain, traced []*passResult
	for k := 0; ; k++ {
		tr := trace && k%2 == 1
		t0 := time.Now()
		rt := readRuntime()
		hs := startHeapSampler()
		p := w.pass(e, k, tr)
		p.heapMiB = hs.stop()
		if tr {
			rt.layersSince(p.layers)
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		for _, msg := range p.failed {
			fmt.Fprintf(os.Stderr, "perfbench: %s: pass %d: %s\n", w.name, k, msg)
		}
		last := time.Since(t0).Seconds()
		if k >= minPasses-1 && time.Since(start).Seconds()+last > seconds {
			break
		}
	}

	out := &output{Metrics: map[string]metricValue{}}
	all := append(append([]*passResult(nil), plain...), traced...)
	for _, p := range all {
		out.Attempted += p.attempted
		out.Failed += len(p.failed)
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op attempted", w.name)
	}
	out.Correct = out.Failed == 0

	put := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
	}
	if !trace {
		var setup, heap, wall, ops []float64
		for _, p := range plain {
			setup = append(setup, p.setup...)
			heap = append(heap, p.heapMiB)
			wall = append(wall, p.wall)
			ops = append(ops, p.opMs...)
		}
		put(endToEnd, map[string]float64{
			"setup_s":     median(setup),
			"ok_ratio":    1 - float64(out.Failed)/float64(out.Attempted),
			"heap_p90_mb": median(heap),
			"wall_s":      median(wall),
			"op_p50_ms":   median(ops),
		})
		return out, nil
	}

	vals := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.layers[d.Name])
		}
		vals[d.Name] = median(xs)
	}
	var plainWall, tracedWall []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall)
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall)
	}
	vals["trace.wall_s"] = median(tracedWall)
	vals["trace.overhead_ratio"] = ratio(median(tracedWall), median(plainWall))
	put(perLayer, vals)
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
