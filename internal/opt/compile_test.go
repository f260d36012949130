package opt

import (
	"math"
	"math/rand"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/sim"
	"peak/internal/workloads"
)

// testKernel bundles a program, its entry function, and an input generator.
type testKernel struct {
	name string
	prog *ir.Program
	fn   *ir.Func
	// args produces scalar arguments for one invocation.
	args func(r *rand.Rand) []float64
	// fill initializes memory before one invocation.
	fill func(r *rand.Rand, mem *sim.Memory)
}

func saxpyKernel() testKernel {
	prog := ir.NewProgram()
	prog.AddArray("x", ir.F64, 256)
	prog.AddArray("y", ir.F64, 256)
	b := irbuild.NewFunc("saxpy")
	b.ScalarParam("n", ir.I64).ScalarParam("a", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.At("y", b.V("i")),
				b.FAdd(b.At("y", b.V("i")), b.FMul(b.V("a"), b.At("x", b.V("i"))))),
		),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "saxpy", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 { return []float64{float64(r.Intn(256)), r.Float64() * 3} },
		fill: fillFloats("x", "y"),
	}
}

func dotStrideKernel() testKernel {
	// Strided access with an accumulator cell: exercises strength
	// reduction, store motion, LICM.
	prog := ir.NewProgram()
	prog.AddArray("x", ir.F64, 512)
	prog.AddArray("acc", ir.F64, 4)
	b := irbuild.NewFunc("dot")
	b.ScalarParam("n", ir.I64).ScalarParam("stride", ir.I64)
	fn := b.Body(
		b.Set(b.At("acc", b.I(0)), b.F(0)),
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.At("acc", b.I(0)),
				b.FAdd(b.At("acc", b.I(0)),
					b.FMul(b.At("x", b.Mul(b.V("i"), b.V("stride"))),
						b.At("x", b.Add(b.Mul(b.V("i"), b.V("stride")), b.I(1)))))),
		),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "dotstride", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 {
			stride := float64(1 + r.Intn(3))
			n := float64(r.Intn(int(500/stride)-1) + 1)
			return []float64{n, stride}
		},
		fill: fillFloats("x"),
	}
}

func branchyKernel() testKernel {
	// Data-dependent branches, guards, min/max patterns: exercises
	// if-conversion, branch hints, guard removal.
	prog := ir.NewProgram()
	prog.AddArray("v", ir.F64, 256)
	b := irbuild.NewFunc("branchy")
	b.ScalarParam("n", ir.I64).Local("best", ir.F64).Local("cnt", ir.I64)
	fn := b.Body(
		b.Set(b.V("best"), b.F(-1e18)),
		b.For("i", b.I(0), b.V("n"), 1,
			b.Guard(b.Ge(b.V("i"), b.I(0)),
				b.If(b.FGt(b.At("v", b.V("i")), b.V("best")),
					b.Set(b.V("best"), b.At("v", b.V("i"))),
				),
				b.IfElse(b.Eq(b.Mod(b.V("i"), b.I(3)), b.I(0)),
					b.Stmts(b.Set(b.V("cnt"), b.Add(b.V("cnt"), b.I(2)))),
					b.Stmts(b.Set(b.V("cnt"), b.Add(b.V("cnt"), b.I(1)))),
				),
			),
		),
		b.Ret(b.FAdd(b.V("best"), b.Call("abs", b.V("cnt")))),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "branchy", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 { return []float64{float64(1 + r.Intn(256))} },
		fill: fillFloats("v"),
	}
}

func searchKernel() testKernel {
	// Early-exit while loop (longest_match shape).
	prog := ir.NewProgram()
	prog.AddArray("s", ir.I64, 300)
	b := irbuild.NewFunc("search")
	b.ScalarParam("n", ir.I64).ScalarParam("key", ir.I64).Local("i", ir.I64).Local("hits", ir.I64)
	fn := b.Body(
		b.Set(b.V("i"), b.I(0)),
		b.While(b.Lt(b.V("i"), b.V("n")),
			b.If(b.Eq(b.At("s", b.V("i")), b.V("key")),
				b.Set(b.V("hits"), b.Add(b.V("hits"), b.I(1))),
				b.If(b.Gt(b.V("hits"), b.I(4)), b.Break()),
			),
			b.Set(b.V("i"), b.Add(b.V("i"), b.I(1))),
		),
		b.Ret(b.Add(b.Mul(b.V("hits"), b.I(1000)), b.V("i"))),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "search", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 {
			return []float64{float64(1 + r.Intn(300)), float64(r.Intn(4))}
		},
		fill: func(r *rand.Rand, mem *sim.Memory) {
			d := mem.Get("s").Data
			for i := range d {
				d[i] = float64(r.Intn(4))
			}
		},
	}
}

func callKernel() testKernel {
	// User-function calls: exercises inlining, caller-saves, call costs.
	prog := ir.NewProgram()
	prog.AddArray("a", ir.F64, 128)
	cb := irbuild.NewFunc("blend")
	cb.ScalarParam("x", ir.F64).ScalarParam("y", ir.F64).ScalarParam("w", ir.F64)
	prog.AddFunc(cb.Body(
		cb.Ret(cb.FAdd(cb.FMul(cb.V("x"), cb.V("w")), cb.FMul(cb.V("y"), cb.FSub(cb.F(1), cb.V("w"))))),
	))
	b := irbuild.NewFunc("smooth")
	b.ScalarParam("n", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(1), b.V("n"), 1,
			b.Set(b.V("s"), b.FAdd(b.V("s"),
				b.Call("blend", b.At("a", b.V("i")), b.At("a", b.Sub(b.V("i"), b.I(1))), b.F(0.75)))),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "call", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 { return []float64{float64(1 + r.Intn(128))} },
		fill: fillFloats("a"),
	}
}

func matmulKernel() testKernel {
	prog := ir.NewProgram()
	prog.AddArray("A", ir.F64, 64)
	prog.AddArray("B", ir.F64, 64)
	prog.AddArray("C", ir.F64, 64)
	b := irbuild.NewFunc("matmul")
	b.ScalarParam("n", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.For("j", b.I(0), b.V("n"), 1,
				b.Set(b.V("s"), b.F(0)),
				b.For("k", b.I(0), b.V("n"), 1,
					b.Set(b.V("s"), b.FAdd(b.V("s"),
						b.FMul(b.At("A", b.Add(b.Mul(b.V("i"), b.V("n")), b.V("k"))),
							b.At("B", b.Add(b.Mul(b.V("k"), b.V("n")), b.V("j")))))),
				),
				b.Set(b.At("C", b.Add(b.Mul(b.V("i"), b.V("n")), b.V("j"))), b.V("s")),
			),
		),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "matmul", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 { return []float64{float64(2 + r.Intn(7))} },
		fill: fillFloats("A", "B", "C"),
	}
}

func globalsKernel() testKernel {
	prog := ir.NewProgram()
	prog.AddScalar("acc", ir.F64)
	prog.AddScalar("calls", ir.I64)
	prog.AddArray("w", ir.F64, 64)
	b := irbuild.NewFunc("accum")
	b.ScalarParam("n", ir.I64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.V("acc"), b.FAdd(b.V("acc"), b.At("w", b.V("i")))),
		),
		b.Set(b.V("calls"), b.Add(b.V("calls"), b.I(1))),
		b.Ret(b.V("acc")),
	)
	prog.AddFunc(fn)
	return testKernel{
		name: "globals", prog: prog, fn: fn,
		args: func(r *rand.Rand) []float64 { return []float64{float64(r.Intn(64))} },
		fill: fillFloats("w"),
	}
}

func allKernels() []testKernel {
	return []testKernel{
		saxpyKernel(), dotStrideKernel(), branchyKernel(),
		searchKernel(), callKernel(), matmulKernel(), globalsKernel(),
	}
}

func fillFloats(names ...string) func(r *rand.Rand, mem *sim.Memory) {
	return func(r *rand.Rand, mem *sim.Memory) {
		for _, n := range names {
			d := mem.Get(n).Data
			for i := range d {
				d[i] = r.NormFloat64() * 10
			}
		}
	}
}

// snapshotAll copies every array for comparison.
func snapshotAll(mem *sim.Memory) map[string][]float64 {
	return mem.Snapshot(mem.Names())
}

func equalState(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] && !(math.IsNaN(av[i]) && math.IsNaN(bv[i])) {
				return false
			}
		}
	}
	return true
}

func equalRet(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// runOnce executes version v on a fresh runner with deterministic inputs.
func runOnce(t *testing.T, k testKernel, v *sim.Version, m *machine.Machine,
	seed int64) (float64, map[string][]float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	mem := sim.NewMemory(k.prog)
	if k.fill != nil {
		k.fill(r, mem)
	}
	args := k.args(r)
	runner := sim.NewRunner(m, mem, seed)
	ret, _, err := runner.Run(v, args)
	if err != nil {
		t.Fatalf("%s %s: run failed: %v", k.name, v.Label, err)
	}
	return ret, snapshotAll(mem)
}

// TestFlagSemanticsPreserved is the compiler's main correctness property:
// for every kernel, random flag combinations (plus -O0 and -O3 and every
// single-flag set) must produce bit-identical results and final memory.
func TestFlagSemanticsPreserved(t *testing.T) {
	machines := []*machine.Machine{machine.SPARCII(), machine.PentiumIV()}
	rng := rand.New(rand.NewSource(2004))

	var sets []FlagSet
	sets = append(sets, O0(), O3())
	for f := 0; f < NumFlags; f++ {
		sets = append(sets, O0().With(Flag(f)))
		sets = append(sets, O3().Without(Flag(f)))
	}
	for i := 0; i < 40; i++ {
		sets = append(sets, FlagSet(rng.Uint64())&O3())
	}

	for _, k := range allKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			for mi, m := range machines {
				ref, err := Compile(k.prog, k.fn, O0(), m)
				if err != nil {
					t.Fatalf("compile -O0: %v", err)
				}
				for trial := 0; trial < 3; trial++ {
					seed := int64(100*mi + trial)
					wantRet, wantMem := runOnce(t, k, ref, m, seed)
					for _, fs := range sets {
						v, err := Compile(k.prog, k.fn, fs, m)
						if err != nil {
							t.Fatalf("compile %s: %v", fs, err)
						}
						gotRet, gotMem := runOnce(t, k, v, m, seed)
						if !equalRet(gotRet, wantRet) {
							t.Fatalf("%s on %s, flags %s: return %v, want %v",
								k.name, m.Name, fs, gotRet, wantRet)
						}
						if !equalState(gotMem, wantMem) {
							t.Fatalf("%s on %s, flags %s: memory state differs", k.name, m.Name, fs)
						}
					}
				}
			}
		})
	}
}

// TestO3FasterOnRegularCode sanity-checks the cost model: full optimization
// must beat -O0 on a regular numeric kernel on both machines.
func TestO3FasterOnRegularCode(t *testing.T) {
	for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
		k := saxpyKernel()
		v0, err := Compile(k.prog, k.fn, O0(), m)
		if err != nil {
			t.Fatal(err)
		}
		v3, err := Compile(k.prog, k.fn, O3(), m)
		if err != nil {
			t.Fatal(err)
		}
		mem := sim.NewMemory(k.prog)
		runner := sim.NewRunner(m, mem, 9)
		_, s0, err := runner.Run(v0, []float64{200})
		if err != nil {
			t.Fatal(err)
		}
		runner.ResetMicroarch()
		_, s3, err := runner.Run(v3, []float64{200})
		if err != nil {
			t.Fatal(err)
		}
		if s3.Cycles >= s0.Cycles {
			t.Errorf("%s: -O3 (%d cycles) not faster than -O0 (%d cycles)", m.Name, s3.Cycles, s0.Cycles)
		}
	}
}

func TestFlagSetOps(t *testing.T) {
	s := O0().With(FGCSE).With(FUnrollLoops)
	if !s.Has(FGCSE) || !s.Has(FUnrollLoops) || s.Has(FStrictAliasing) {
		t.Error("With/Has broken")
	}
	if s.Without(FGCSE).Has(FGCSE) {
		t.Error("Without broken")
	}
	if O3().Count() != NumFlags {
		t.Errorf("O3 count = %d, want %d", O3().Count(), NumFlags)
	}
	if NumFlags != 38 {
		t.Errorf("NumFlags = %d, want 38 (paper §5.2)", NumFlags)
	}
	parsed, err := ParseFlagSet("-O3")
	if err != nil || parsed != O3() {
		t.Errorf("ParseFlagSet(-O3) = %v, %v", parsed, err)
	}
	parsed, err = ParseFlagSet("gcse strict-aliasing")
	if err != nil || !parsed.Has(FGCSE) || !parsed.Has(FStrictAliasing) || parsed.Count() != 2 {
		t.Errorf("ParseFlagSet list = %v, %v", parsed, err)
	}
	if _, err := ParseFlagSet("no-such-flag"); err == nil {
		t.Error("ParseFlagSet accepted unknown flag")
	}
	for f := 0; f < NumFlags; f++ {
		got, ok := FlagByName(Flag(f).String())
		if !ok || got != Flag(f) {
			t.Errorf("FlagByName(%s) = %v, %v", Flag(f), got, ok)
		}
	}
}

func TestFlagDocsComplete(t *testing.T) {
	for _, f := range AllFlags() {
		if FlagDoc(f) == "" {
			t.Errorf("flag %s has no documentation", f)
		}
	}
}

// TestHIRStageReadsOnlyHIRFlags: the stage memo keys the HIR stage by
// flags & hirFlags, so the stage's output must not depend on any other
// flag. Compare it unmasked and masked over the O3 family and random sets.
func TestHIRStageReadsOnlyHIRFlags(t *testing.T) {
	for _, b := range workloads.All() {
		for _, fs := range flagFamily(6) {
			full, err := lowerHIR(b.Prog, b.TS, fs)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, fs, err)
			}
			masked, err := lowerHIR(b.Prog, b.TS, fs&hirFlags)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, fs, err)
			}
			if full.String() != masked.String() {
				t.Errorf("%s %s: HIR stage reads a flag outside hirFlags", b.Name, fs)
			}
		}
	}
}
