// Package experiments regenerates the paper's evaluation artifacts:
// Table 1 (rating consistency) and Figure 7 (performance improvement and
// normalized tuning time on both machines). The cmd/peak-consistency and
// cmd/peak-experiments binaries, the repository benchmarks, and
// EXPERIMENTS.md all drive these entry points.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/trace"
	"peak/internal/workloads"
)

// PaperWindows are Table 1's window sizes.
var PaperWindows = []int{10, 20, 40, 80, 160}

// Table1 reproduces the consistency experiment for every benchmark on the
// given machine: the consultant-chosen rating method's error statistics per
// window size (§5.1). Each benchmark's profiling and consistency
// measurement is one coarse job on env.Pool; its random streams are seeded
// from the benchmark and the config, never shared, and the rows are
// reduced in workloads.All() order, so the output is identical at any
// worker count. env.Trace receives one "cell" event per (consistency row,
// window size) and env.Metrics the grid totals. On error the rows of the
// benchmarks before the failed one are still returned with the error.
func Table1(m *machine.Machine, windows []int, cfg *core.Config, env Env) ([]core.ConsistencyRow, error) {
	return table1(workloads.All(), m, windows, cfg, env)
}

func table1(benches []*bench.Benchmark, m *machine.Machine, windows []int, cfg *core.Config, env Env) ([]core.ConsistencyRow, error) {
	return fanOut(env, "table 1", benchNames(benches), func(i int, env Env) ([]core.ConsistencyRow, error) {
		b := benches[i]
		p, err := profiling.Run(b, b.Train, m)
		if err != nil {
			return nil, err
		}
		method := core.Consult(p, cfg).Chosen()
		rows, err := core.Consistency(b, m, p, method, windows, cfg)
		if err != nil {
			return nil, err
		}
		if env.Trace != nil {
			for _, row := range rows {
				section := row.Section
				if row.Context != "" {
					section += "(" + row.Context + ")"
				}
				for _, w := range windows {
					ws := row.Windows[w]
					env.Trace.Emit(trace.Event{Kind: trace.KindCell,
						Detail: fmt.Sprintf("table1/%s/%s/%s", b.Name, m.Name, section),
						Method: row.Method.String(), Count: int64(w),
						Mu: ws.Mu, Sigma: ws.Sigma})
				}
			}
		}
		env.Metrics.Add("experiments.table1_rows", int64(len(rows)))
		return rows, nil
	})
}

// benchNames lists the benchmarks' names, in order, for fanOut's errors.
func benchNames(benches []*bench.Benchmark) []string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	return names
}

// FormatTable1 renders rows in the paper's layout: mean (standard
// deviation) multiplied by 100 per window size.
func FormatTable1(rows []core.ConsistencyRow, windows []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %-18s %-10s %-8s", "Benchmark", "Tuning Section", "Approach", "#invoc")
	for _, w := range windows {
		fmt.Fprintf(&sb, " %14s", fmt.Sprintf("w=%d", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		section := r.Section
		if r.Context != "" {
			section += "(" + r.Context + ")"
		}
		fmt.Fprintf(&sb, "%-9s %-18s %-10s %-8d", r.Benchmark, section, r.Method, r.Invocations)
		for _, w := range windows {
			ws := r.Windows[w]
			fmt.Fprintf(&sb, " %14s", fmt.Sprintf("%.2f(%.2f)", ws.Mu*100, ws.Sigma*100))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig7Entry is one bar group of Figure 7: a benchmark rated with one method
// variant, tuned separately on the train and ref datasets, always measured
// on ref.
type Fig7Entry struct {
	Benchmark string
	Method    core.Method
	// Chosen marks the method the PEAK consultant picked for the
	// benchmark ("The PEAK compiler chooses MBR for MGRID, CBR for SWIM,
	// CBR for EQUAKE, and RBR for ART", §5.2).
	Chosen bool

	// TrainImprovement / RefImprovement are the relative performance
	// improvements over "-O3" measured with the ref dataset, tuning with
	// the train or ref dataset respectively (left and right bars of
	// Figure 7 a–b).
	TrainImprovement float64
	RefImprovement   float64

	// TrainTuningCycles / RefTuningCycles are the simulated tuning times;
	// TrainNormTime / RefNormTime normalize them to the WHL entry of the
	// same benchmark (Figure 7 c–d).
	TrainTuningCycles int64
	RefTuningCycles   int64
	TrainNormTime     float64
	RefNormTime       float64

	// Flags records the train-tuned winner (diagnostics).
	Flags opt.FlagSet
}

// Figure7 reproduces the Figure-7 experiment on machine m for the given
// benchmarks (the paper's are workloads.Figure7Set: SWIM, MGRID, ART,
// EQUAKE): every forceable rating method plus the WHL and AVG baselines,
// tuned on train and on ref, measured on ref. It runs with two grains of
// parallelism on env.Pool — each benchmark is one coarse job, and each
// tuning process inside it shards its candidate ratings through the same
// pool — and reduces the entries in input order; every tuning engine
// derives its random streams per job, so the result is identical at any
// worker count. env.Cache, env.Store and env.Journal serve every tune and
// measurement of the run (a journal checkpoint is keyed
// "bench/machine/method/dataset"); env.Trace receives every tune's events
// and env.Metrics their counters. On error the entries of the benchmarks
// before the failed one are still returned with the error.
func Figure7(benches []*bench.Benchmark, m *machine.Machine, cfg *core.Config, env Env) ([]Fig7Entry, error) {
	return fanOut(env, "figure 7", benchNames(benches), func(i int, env Env) ([]Fig7Entry, error) {
		return figure7One(benches[i], m, cfg, env)
	})
}

func figure7One(b *bench.Benchmark, m *machine.Machine, cfg *core.Config, env Env) ([]Fig7Entry, error) {
	pTrain, err := profiling.Run(b, b.Train, m)
	if err != nil {
		return nil, err
	}
	pRef, err := profiling.Run(b, b.Ref, m)
	if err != nil {
		return nil, err
	}
	chosen := core.Consult(pTrain, cfg).Chosen()
	measure := func(flags opt.FlagSet) (int64, error) {
		ts, _, err := core.MeasurePerformanceStored(b, b.Ref, m, flags, env.Cache, env.Store)
		return ts, err
	}

	baseRef, err := measure(opt.O3())
	if err != nil {
		return nil, err
	}

	methods := forceable(pTrain, cfg)
	entries := make([]Fig7Entry, 0, len(methods))
	for _, method := range methods {
		e := Fig7Entry{Benchmark: b.Name, Method: method, Chosen: method == chosen}

		trainRes, err := tuneForced(b, b.Train, m, pTrain, method, cfg, env)
		if err != nil {
			return nil, fmt.Errorf("%s %s train: %w", b.Name, method, err)
		}
		refRes, err := tuneForced(b, b.Ref, m, pRef, method, cfg, env)
		if err != nil {
			return nil, fmt.Errorf("%s %s ref: %w", b.Name, method, err)
		}
		tunedTrain, err := measure(trainRes.Best)
		if err != nil {
			return nil, err
		}
		tunedRef, err := measure(refRes.Best)
		if err != nil {
			return nil, err
		}
		e.TrainImprovement = core.Improvement(baseRef, tunedTrain)
		e.RefImprovement = core.Improvement(baseRef, tunedRef)
		e.TrainTuningCycles = trainRes.TuningCycles
		e.RefTuningCycles = refRes.TuningCycles
		e.Flags = trainRes.Best
		entries = append(entries, e)
	}

	// Normalize tuning times to WHL.
	var whl *Fig7Entry
	for i := range entries {
		if entries[i].Method == core.MethodWHL {
			whl = &entries[i]
		}
	}
	for i := range entries {
		if whl != nil && whl.TrainTuningCycles > 0 {
			entries[i].TrainNormTime = float64(entries[i].TrainTuningCycles) / float64(whl.TrainTuningCycles)
		}
		if whl != nil && whl.RefTuningCycles > 0 {
			entries[i].RefNormTime = float64(entries[i].RefTuningCycles) / float64(whl.RefTuningCycles)
		}
	}
	return entries, nil
}

// forceable lists the method bars Figure 7 shows for a benchmark: every
// rating method that can be *executed*, plus the WHL and AVG baselines.
// CBR needs scalar context variables and constant control arrays but may
// still have too many contexts (the MGRID_CBR bar exists to show that
// cost); MBR appears only where the consultant finds the component model
// usable — the paper's figure has no art_MBR bar.
func forceable(p *profiling.Profile, cfg *core.Config) []core.Method {
	var out []core.Method
	if p.ContextSet.Applicable && p.ContextArraysConst && p.NumContexts() > 0 {
		out = append(out, core.MethodCBR)
	}
	if core.Consult(p, cfg).Has(core.MethodMBR) {
		out = append(out, core.MethodMBR)
	}
	out = append(out, core.MethodRBR, core.MethodWHL, core.MethodAVG)
	return out
}

// tuneForced runs one forced-method tune under env. The trace buffer in
// env belongs to the calling coarse job, which is also the tune's
// reduction goroutine, so emission stays single-threaded.
func tuneForced(b *bench.Benchmark, ds *bench.Dataset, m *machine.Machine,
	p *profiling.Profile, method core.Method, cfg *core.Config, env Env) (*core.TuneResult, error) {
	return env.Tune(core.Tuner{Bench: b, Mach: m, Dataset: ds, Cfg: *cfg, Profile: p, Force: &method})
}

// FormatFigure7 renders the entries as the two panels of Figure 7 for one
// machine: percentage improvements and normalized tuning times.
func FormatFigure7(entries []Fig7Entry, machineName string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Performance improvement over -O3 on %s (measured on ref):\n", machineName)
	fmt.Fprintf(&sb, "%-22s %7s %7s   %s\n", "bar", "train", "ref", "(tuning data set used)")
	for _, e := range entries {
		mark := " "
		if e.Chosen {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%-22s %6.1f%% %6.1f%%  %s\n",
			strings.ToLower(e.Benchmark)+"_"+e.Method.String(), 100*e.TrainImprovement,
			100*e.RefImprovement, mark)
	}
	fmt.Fprintf(&sb, "\nTuning time normalized to WHL on %s:\n", machineName)
	fmt.Fprintf(&sb, "%-22s %7s %7s\n", "bar", "train", "ref")
	for _, e := range entries {
		fmt.Fprintf(&sb, "%-22s %7.3f %7.3f\n",
			strings.ToLower(e.Benchmark)+"_"+e.Method.String(), e.TrainNormTime, e.RefNormTime)
	}
	sb.WriteString("(* = method chosen by the PEAK consultant)\n")
	return sb.String()
}

// Headline summarizes the paper's abstract-level claims over a set of
// Figure-7 entries from both machines: maximum and average improvement
// using the PEAK-chosen methods, and maximum and average tuning-time
// reduction versus WHL.
type Headline struct {
	MaxImprovement float64
	AvgImprovement float64
	MaxReduction   float64
	AvgReduction   float64
}

// Summarize computes the headline numbers from the chosen-method entries.
func Summarize(entries []Fig7Entry) Headline {
	var h Headline
	var imps, reds []float64
	for _, e := range entries {
		if !e.Chosen {
			continue
		}
		imps = append(imps, e.TrainImprovement)
		if e.TrainNormTime > 0 {
			reds = append(reds, 1-e.TrainNormTime)
		}
	}
	sort.Float64s(imps)
	sort.Float64s(reds)
	for _, v := range imps {
		h.AvgImprovement += v
		if v > h.MaxImprovement {
			h.MaxImprovement = v
		}
	}
	if len(imps) > 0 {
		h.AvgImprovement /= float64(len(imps))
	}
	for _, v := range reds {
		h.AvgReduction += v
		if v > h.MaxReduction {
			h.MaxReduction = v
		}
	}
	if len(reds) > 0 {
		h.AvgReduction /= float64(len(reds))
	}
	return h
}
