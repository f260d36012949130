package opt_test

import (
	"slices"
	"sync"
	"testing"

	"peak/internal/ir"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// lirText renders a version's code, callees included, in a fixed order.
func lirText(v *sim.Version) string {
	s := v.LF.String()
	names := make([]string, 0, len(v.Callees))
	for n := range v.Callees {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		s += "\n" + n + ":\n" + lirText(v.Callees[n])
	}
	return s
}

// TestStagesTransparentAndImmutable checks that compiling through the HIR
// stage memo gives exactly what Compile gives — same Fingerprint128, same
// LIR text — for every kernel on both machines, and that reusing a memo
// entry never changes it. The machines run in parallel over shared
// programs, so under -race it also checks that compilation never writes to
// its inputs.
func TestStagesTransparentAndImmutable(t *testing.T) {
	benches := workloads.All()
	family := opt.FlagFamily(6)
	var wg sync.WaitGroup
	for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range benches {
				checkStages(t, b.Name, b.Prog, b.TS, m, family)
			}
		}()
	}
	wg.Wait()
}

func checkStages(t *testing.T, name string, prog *ir.Program, fn *ir.Func, m *machine.Machine, family []opt.FlagSet) {
	st := opt.NewStages()
	want := make([]vcache.FP128, len(family))
	for i, fs := range family {
		v, err := opt.Compile(prog, fn, fs, m)
		if err != nil {
			t.Errorf("%s/%s %s: %v", name, m.Name, fs, err)
			return
		}
		got, err := st.Compile(prog, fn, fs, m)
		if err != nil {
			t.Errorf("%s/%s %s: memo: %v", name, m.Name, fs, err)
			return
		}
		v.Freeze()
		got.Freeze()
		want[i] = vcache.Fingerprint128(v)
		if fp := vcache.Fingerprint128(got); fp != want[i] {
			t.Errorf("%s/%s %s: memo fingerprint %s, Compile %s", name, m.Name, fs, fp, want[i])
		}
		if a, b := lirText(got), lirText(v); a != b {
			t.Errorf("%s/%s %s: memo code differs from Compile:\n%s\n---\n%s", name, m.Name, fs, a, b)
		}
	}
	entries := st.MemoLFuncs()
	before := make([]string, len(entries))
	for i, lf := range entries {
		before[i] = lf.String()
	}
	// Reuse every entry again; the entries and the results must not move.
	for i, fs := range family {
		got, err := st.Compile(prog, fn, fs, m)
		if err != nil {
			t.Errorf("%s/%s %s: memo reuse: %v", name, m.Name, fs, err)
			return
		}
		got.Freeze()
		if fp := vcache.Fingerprint128(got); fp != want[i] {
			t.Errorf("%s/%s %s: reused memo fingerprint %s, want %s", name, m.Name, fs, fp, want[i])
		}
	}
	for i, lf := range entries {
		if lf.String() != before[i] {
			t.Errorf("%s/%s: memo entry %s changed after reuse", name, m.Name, lf.Name)
		}
	}
	if hits, misses := st.Stats(); hits == 0 || misses == 0 {
		t.Errorf("%s/%s: memo hits %d, misses %d; want both nonzero", name, m.Name, hits, misses)
	}
}
