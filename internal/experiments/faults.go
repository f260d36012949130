package experiments

import (
	"fmt"
	"strings"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
)

// This file adds the robustness experiment: the Figure-7 tuning protocol is
// re-run under deterministic fault injection — transient compile failures,
// silent miscompiles, measurement hangs and rating-job panics — and each
// bar's winning flag set is compared against its fault-free twin. The
// engine's recovery machinery (retry with backoff, golden-output
// verification with quarantine, panic isolation) has one success criterion:
// the faulted tuning process completes and still picks the same winners.

// FaultBar is one (benchmark, method) comparison of the fault report.
type FaultBar struct {
	Benchmark string
	Method    core.Method

	// CleanBest / FaultedBest are the winning flag sets tuned on the train
	// dataset without and with fault injection; Same is their equality.
	CleanBest   opt.FlagSet
	FaultedBest opt.FlagSet
	Same        bool

	// Recovery ledger of the faulted tune.
	Quarantined       []opt.Flag
	CompileRetries    int
	MeasureRetries    int
	JobRetries        int
	VerifyInvocations int64
	// Overhead is the faulted tune's simulated tuning time relative to the
	// fault-free tune's (1 = no overhead).
	Overhead float64
}

// FaultReport runs the robustness experiment on machine m: per benchmark
// and forceable rating method, one fault-free and one faulted tune on the
// train dataset (render the bars with FormatFaultReport). Each benchmark
// is one coarse job on env.Pool and bars are reduced in input order, so
// the bars are identical at any worker count. env.Journal checkpoints
// (and resumes) the faulted tunes; env.Trace receives the faulted tunes'
// events — the fault-free twins stay untraced, since they would collide
// with the faulted tunes' identities and tell a story the Figure-7 trace
// already tells — and env.Metrics both tunes' counters. On error the bars
// of the benchmarks before the failed one are still returned with the
// error.
func FaultReport(benches []*bench.Benchmark, m *machine.Machine, cfg *core.Config, plan *fault.Plan, env Env) ([]FaultBar, error) {
	return fanOut(env, "fault report", benchNames(benches), func(i int, env Env) ([]FaultBar, error) {
		return faultReportOne(benches[i], m, cfg, plan, env)
	})
}

func faultReportOne(b *bench.Benchmark, m *machine.Machine, cfg *core.Config, plan *fault.Plan, env Env) ([]FaultBar, error) {
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		return nil, err
	}
	cleanEnv := env
	cleanEnv.Journal, cleanEnv.Trace = nil, nil
	var bars []FaultBar
	for _, method := range forceable(p, cfg) {
		cleanCfg := *cfg
		cleanCfg.Faults = nil
		clean, err := tuneForced(b, b.Train, m, p, method, &cleanCfg, cleanEnv)
		if err != nil {
			return bars, fmt.Errorf("%s %s fault-free: %w", b.Name, method, err)
		}
		faultCfg := *cfg
		faultCfg.Faults = plan
		faulted, err := tuneForced(b, b.Train, m, p, method, &faultCfg, env)
		if err != nil {
			return bars, fmt.Errorf("%s %s faulted: %w", b.Name, method, err)
		}
		bar := FaultBar{
			Benchmark: b.Name, Method: method,
			CleanBest: clean.Best, FaultedBest: faulted.Best,
			Same:              clean.Best == faulted.Best,
			Quarantined:       faulted.Quarantined,
			CompileRetries:    faulted.CompileRetries,
			MeasureRetries:    faulted.MeasureRetries,
			JobRetries:        faulted.JobRetries,
			VerifyInvocations: faulted.VerifyInvocations,
		}
		if clean.TuningCycles > 0 {
			bar.Overhead = float64(faulted.TuningCycles) / float64(clean.TuningCycles)
		}
		bars = append(bars, bar)
	}
	return bars, nil
}

// FormatFaultReport renders the bars plus the recovery footer.
func FormatFaultReport(bars []FaultBar, machineName string, plan *fault.Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tuning under injected faults on %s (train dataset, fault seed %d,\nrates: compile-fail %.1f%%, miscompile %.2f%%, hang %.1f%%, job-panic %.1f%%):\n",
		machineName, plan.Seed, 100*plan.CompileFailRate, 100*plan.MiscompileRate,
		100*plan.HangRate, 100*plan.PanicRate)
	fmt.Fprintf(&sb, "%-22s %-6s %5s %14s %9s\n", "bar", "winner", "quar", "retries(c/m/j)", "overhead")
	same, quar, cRetry, mRetry, jRetry := 0, 0, 0, 0, 0
	var verifyInv int64
	for _, b := range bars {
		verdict := "DIFF"
		if b.Same {
			verdict = "SAME"
			same++
		}
		fmt.Fprintf(&sb, "%-22s %-6s %5d %14s %8.3fx\n",
			strings.ToLower(b.Benchmark)+"_"+b.Method.String(), verdict,
			len(b.Quarantined),
			fmt.Sprintf("%d/%d/%d", b.CompileRetries, b.MeasureRetries, b.JobRetries),
			b.Overhead)
		quar += len(b.Quarantined)
		cRetry += b.CompileRetries
		mRetry += b.MeasureRetries
		jRetry += b.JobRetries
		verifyInv += b.VerifyInvocations
	}
	fmt.Fprintf(&sb, "\n%d/%d bars picked the fault-free winner.\n", same, len(bars))
	fmt.Fprintf(&sb, "Recovery totals: %d flag(s) quarantined as miscompiled, %d compile retries,\n", quar, cRetry)
	fmt.Fprintf(&sb, "%d hung measurements killed and retried, %d panicked jobs re-run,\n", mRetry, jRetry)
	fmt.Fprintf(&sb, "%d verification invocations spent on golden-output checks.\n", verifyInv)
	return sb.String()
}
