package main

import (
	"fmt"
	"strings"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// fingerprintDrift compiles spec's ("BENCH/machine") tuning section under
// -O3 n times and returns how many distinct vcache.Fingerprint values the
// compiles produced. Deterministic compilation gives 1; README.md
// ("Known defect") records what the kernels give today.
func fingerprintDrift(spec string, n int) (int, error) {
	name, mach, ok := strings.Cut(spec, "/")
	b, okB := workloads.ByName(name)
	m, okM := machine.ByName(mach)
	if !ok || !okB || !okM {
		return 0, fmt.Errorf("drift: want BENCH/machine, got %q", spec)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		v, err := opt.Compile(b.Prog, b.TS, opt.O3(), m)
		if err != nil {
			return 0, fmt.Errorf("drift: %w", err)
		}
		v.Freeze()
		seen[vcache.Fingerprint(v)] = true
	}
	return len(seen), nil
}
