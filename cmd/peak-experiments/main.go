// Command peak-experiments regenerates the paper's Figure 7: performance
// improvement over "-O3" (panels a, b) and tuning time normalized to the
// whole-program WHL baseline (panels c, d), for SWIM, MGRID, ART and EQUAKE
// under every forceable rating method plus the WHL and AVG baselines.
//
// With -noise it instead regenerates the noise-sensitivity report
// (results_noise.txt): rating consistency and winner-picking reliability
// under the baseline, gauss4x, spikes, drift and bursts noise regimes.
//
// With -faults it regenerates the robustness report (results_faults.txt):
// the Figure-7 tuning protocol re-run under deterministic fault injection
// (compile failures, miscompiles, measurement hangs, job panics), each
// bar's winner compared against its fault-free twin.
//
// Long runs can checkpoint after every tuning round with -checkpoint; a
// killed run is continued bit-for-bit with -resume (same flags otherwise).
// With -cache-dir, rating jobs, performance measurements and noise-grid
// cells are memoized in a persistent store, so a rerun answers them
// without simulating (output is byte-identical either way).
//
// On SIGINT the journal is synced and the resume command printed before
// exiting with status 130. On any error the results computed so far are
// still flushed before the nonzero exit.
//
// Usage:
//
//	peak-experiments                  # both machines (fig 7 a–d)
//	peak-experiments -machine p4      # one machine
//	peak-experiments -workers 8       # sharded; output identical to -workers 1
//	peak-experiments -headline        # the abstract's summary numbers
//	peak-experiments -noise           # rating error vs noise regime
//	peak-experiments -faults          # tuning under injected faults
//	peak-experiments -checkpoint run.jsonl   # journal every round
//	peak-experiments -resume run.jsonl       # continue a killed run
//	peak-experiments -cache-dir warm/        # warm-start store across runs
//	peak-experiments -trace fig7.jsonl       # record a trace (analyze: peak-trace)
//	peak-experiments -metrics                # print the metrics table to stderr
package main

import (
	"flag"
	"fmt"
	"os"

	"peak"
	"peak/internal/cli"
	"peak/internal/experiments"
)

func main() {
	machName := flag.String("machine", "", `machine: "sparc2", "p4", or empty for both`)
	workers := flag.Int("workers", 1, "parallel workers (0 = GOMAXPROCS); any value gives identical output")
	progress := flag.Bool("progress", false, "print live scheduler status and a final utilization summary")
	headline := flag.Bool("headline", false, "also print the paper-abstract summary numbers")
	noiseRep := flag.Bool("noise", false, "regenerate the noise-sensitivity report instead of Figure 7")
	noCache := flag.Bool("nocache", false, "disable the compile cache (A/B check; output is identical either way)")
	cacheStats := flag.Bool("cachestats", false, "print compile-cache statistics to stderr (Figure 7 mode)")
	faultsRep := flag.Bool("faults", false, "regenerate the fault-injection robustness report instead of Figure 7")
	faultRate := flag.Float64("faultrate", 0.05, "uniform fault rate for -faults (miscompiles injected at rate/10)")
	faultSeed := flag.Int64("faultseed", 2023, "fault-injection seed for -faults")
	checkpoint := flag.String("checkpoint", "", "checkpoint journal path: save resumable state after every tuning round")
	resume := flag.String("resume", "", "resume from an existing checkpoint journal (pass the same other flags)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file (analyze with peak-trace)")
	metrics := flag.Bool("metrics", false, "print the metrics table to stderr after the run")
	cacheDir := flag.String("cache-dir", "", "persistent warm-start store: rating jobs, measurements and noise-grid cells memoize across runs (faulted tunes never do; output identical either way)")
	flag.Parse()

	var machines []*peak.Machine
	switch *machName {
	case "":
		machines = []*peak.Machine{peak.SPARCII(), peak.PentiumIV()}
	default:
		m, ok := peak.MachineByName(*machName)
		if !ok {
			fmt.Fprintf(os.Stderr, "peak-experiments: unknown machine %q\n", *machName)
			os.Exit(1)
		}
		machines = []*peak.Machine{m}
	}

	// -resume requires an existing journal; -checkpoint reuses one if the
	// file already holds state (so a killed -checkpoint run can simply be
	// re-invoked) and creates it otherwise. The noise grid touches no
	// compile cache, so that mode shares none.
	journalPath := *checkpoint
	if *resume != "" {
		journalPath = *resume
	}
	run, err := cli.Start(cli.Options{
		Name: "peak-experiments", Workers: *workers, Progress: *progress,
		NoCache: *noCache || *noiseRep, CacheDir: *cacheDir,
		Journal: journalPath, Resume: *resume != "",
		TracePath: *tracePath, Metrics: *metrics,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
		os.Exit(1)
	}
	finish := func(code int) {
		if err := run.Close(code != 0); err != nil {
			fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	cfg := peak.DefaultConfig()
	cfg.NoCompileCache = *noCache

	if *noiseRep {
		for i, m := range machines {
			report, err := experiments.NoiseReport(m, &cfg, run.Env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
				finish(1)
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(report)
		}
		finish(0)
	}

	if *faultsRep {
		plan := peak.UniformFaults(*faultRate, *faultSeed)
		for i, m := range machines {
			bars, err := experiments.FaultReport(peak.Figure7Benchmarks(), m, &cfg, plan, run.Env)
			if i > 0 {
				fmt.Println()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
				if len(bars) > 0 {
					fmt.Fprintf(os.Stderr, "peak-experiments: flushing %d completed bar(s)\n", len(bars))
					fmt.Print(experiments.FormatFaultReport(bars, m.Name, plan))
				}
				finish(1)
			}
			fmt.Print(experiments.FormatFaultReport(bars, m.Name, plan))
		}
		finish(0)
	}

	// run.Env.Cache serves both machines: compilations are keyed by
	// machine, so nothing collides, and the -cachestats summary covers the
	// whole run. Output is byte-identical with or without it.
	var all []peak.Fig7Entry
	for _, m := range machines {
		entries, err := experiments.Figure7(peak.Figure7Benchmarks(), m, &cfg, run.Env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
			if len(entries) > 0 {
				fmt.Fprintf(os.Stderr, "peak-experiments: flushing %d completed entr(ies)\n", len(entries))
				fmt.Print(experiments.FormatFigure7(entries, m.Name))
			}
			finish(1)
		}
		fmt.Print(experiments.FormatFigure7(entries, m.Name))
		fmt.Println()
		all = append(all, entries...)
	}
	if *cacheStats && run.Env.Cache != nil {
		fmt.Fprintln(os.Stderr, run.Env.Cache.Stats().Summary())
	}

	if *headline {
		h := experiments.Summarize(all)
		fmt.Printf("Headline (PEAK-chosen methods, tuned on train):\n")
		fmt.Printf("  performance improvement: up to %.0f%% (%.0f%% on average)\n",
			100*h.MaxImprovement, 100*h.AvgImprovement)
		fmt.Printf("  tuning-time reduction vs WHL: up to %.0f%% (%.0f%% on average)\n",
			100*h.MaxReduction, 100*h.AvgReduction)
	}
	finish(0)
}
