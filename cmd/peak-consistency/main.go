// Command peak-consistency regenerates the paper's Table 1: the rating
// consistency (mean and standard deviation of rating errors, ×100) of the
// consultant-chosen method for every benchmark, across window sizes
// w = 10, 20, 40, 80, 160.
//
// Usage:
//
//	peak-consistency [-machine sparc2] [-noise spikes] [-workers 8] [-progress]
//	peak-consistency -trace t1.jsonl -metrics   # record cell events + counters
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
	machName := flag.String("machine", "sparc2", `machine: "sparc2" or "p4"`)
	noiseName := flag.String("noise", "", "noise regime (baseline, gauss4x, spikes, drift, bursts); empty = machine default")
	workers := flag.Int("workers", 1, "parallel workers (0 = GOMAXPROCS); any value gives identical output")
	progress := flag.Bool("progress", false, "print live scheduler status and a final utilization summary")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file (analyze with peak-trace)")
	metrics := flag.Bool("metrics", false, "print the metrics table to stderr after the run")
	flag.Parse()

	m, ok := peak.MachineByName(*machName)
	if !ok {
		fmt.Fprintf(os.Stderr, "peak-consistency: unknown machine %q\n", *machName)
		os.Exit(1)
	}
	cfg := peak.DefaultConfig()
	if *noiseName != "" {
		regime, ok := peak.NoiseRegimeByName(m, *noiseName)
		if !ok {
			fmt.Fprintf(os.Stderr, "peak-consistency: unknown noise regime %q\n", *noiseName)
			os.Exit(1)
		}
		cfg.Noise = &regime.Model
	}
	// Table 1 measures freshly compiled copies and never consults a
	// compile cache, so the run shares none.
	run, err := cli.Start(cli.Options{Name: "peak-consistency", Workers: *workers, Progress: *progress,
		NoCache: true, TracePath: *tracePath, Metrics: *metrics}, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peak-consistency: %v\n", err)
		os.Exit(1)
	}
	rows, err := peak.Table1(m, &cfg, run.Env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peak-consistency: %v\n", err)
		if len(rows) > 0 {
			fmt.Fprintf(os.Stderr, "peak-consistency: flushing %d partial row(s)\n", len(rows))
			fmt.Print(experiments.FormatTable1(rows, experiments.PaperWindows))
		}
		run.Close(true)
		os.Exit(1)
	}
	fmt.Printf("Table 1: consistency of rating approaches on %s\n", m.Name)
	fmt.Println("(numbers are Mean(StdDev) of the rating error, multiplied by 100)")
	fmt.Print(experiments.FormatTable1(rows, experiments.PaperWindows))
	if err := run.Close(false); err != nil {
		fmt.Fprintf(os.Stderr, "peak-consistency: %v\n", err)
		os.Exit(1)
	}
}
