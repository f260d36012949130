package opt

import (
	"math/rand"
	"slices"
	"testing"

	"peak/internal/bench"
	"peak/internal/ir"
	"peak/internal/machine"
	"peak/internal/workloads"
)

// flagFamily returns the flag sets of an Iterative Elimination first round
// (-O3 and -O3 minus each flag), then random seeded subsets of -O3.
func flagFamily(random int) []FlagSet {
	out := []FlagSet{O3()}
	for _, f := range AllFlags() {
		out = append(out, O3().Without(f))
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < random; i++ {
		out = append(out, FlagSet(r.Uint64())&O3())
	}
	return out
}

// BenchmarkCompileO3Family compiles every kernel's tuning section under the
// whole O3 family on both machines; one op is 14 × 2 × 39 compiles.
func BenchmarkCompileO3Family(b *testing.B) {
	benches := workloads.All()
	family := flagFamily(0)
	ms := []*machine.Machine{machine.SPARCII(), machine.PentiumIV()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range benches {
			compileFamily(b, bm, family, ms)
		}
	}
}

func compileFamily(b *testing.B, bm *bench.Benchmark, family []FlagSet, ms []*machine.Machine) {
	for _, m := range ms {
		for _, fs := range family {
			if _, err := Compile(bm.Prog, bm.TS, fs, m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func sortedFuncNames(prog *ir.Program) []string {
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
