package opt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"peak/internal/ir"
	"peak/internal/workloads"
)

// randExpr builds a random pure scalar expression over variables a,b,c.
func randExpr(rng *rand.Rand, depth int) ir.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return &ir.ConstInt{V: int64(rng.Intn(21) - 10)}
		case 1:
			return &ir.ConstFloat{V: float64(rng.Intn(9))/2 - 2}
		default:
			return &ir.VarRef{Name: string(rune('a' + rng.Intn(3)))}
		}
	}
	ops := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	op := ops[rng.Intn(len(ops))]
	typ := ir.I64
	if rng.Intn(4) == 0 && op <= ir.OpMul {
		typ = ir.F64
	}
	return &ir.Binary{Op: op, Typ: typ,
		X: randExpr(rng, depth-1), Y: randExpr(rng, depth-1)}
}

// evalRef interprets an expression directly (the semantic oracle).
func evalRef(e ir.Expr, env map[string]float64) (float64, bool) {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return float64(ex.V), true
	case *ir.ConstFloat:
		return ex.V, true
	case *ir.VarRef:
		return env[ex.Name], true
	case *ir.Unary:
		v, ok := evalRef(ex.X, env)
		if !ok {
			return 0, false
		}
		if ex.Op == ir.OpNeg {
			return -v, true
		}
		if v == 0 {
			return 1, true
		}
		return 0, true
	case *ir.Binary:
		x, ok1 := evalRef(ex.X, env)
		y, ok2 := evalRef(ex.Y, env)
		if !ok1 || !ok2 {
			return 0, false
		}
		return evalBinary(ex.Op, ex.Typ, x, y)
	case *ir.Select:
		c, ok := evalRef(ex.Cond, env)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return evalRef(ex.X, env)
		}
		return evalRef(ex.Y, env)
	}
	return 0, false
}

// TestQuickFoldPreservesSemantics: constant folding and algebraic
// simplification must never change an expression's value.
func TestQuickFoldPreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := map[string]float64{
			"a": float64(rng.Intn(40) - 20),
			"b": float64(rng.Intn(40) - 20),
			"c": float64(rng.Intn(7)) / 2,
		}
		e := randExpr(rng, 4)
		before, okB := evalRef(e, env)
		folded := rewriteExpr(e.Clone(), foldExpr)
		after, okA := evalRef(folded, env)
		if okB != okA {
			// Folding must not introduce or remove faults (div-by-zero is
			// deliberately left unfolded).
			return false
		}
		if !okB {
			return true
		}
		return before == after || (before != before && after != after) // NaN==NaN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickExprKeyCanonical: structurally equal expressions share a key;
// commutative operand order does not matter; different constants differ.
func TestQuickExprKeyCanonical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randExpr(rng, 4)
		if exprKey(e) != exprKey(e.Clone()) {
			return false
		}
		// Swap operands of a commutative top-level op.
		if bin, ok := e.(*ir.Binary); ok && bin.Op.Commutative() {
			swapped := &ir.Binary{Op: bin.Op, Typ: bin.Typ, X: bin.Y.Clone(), Y: bin.X.Clone()}
			if exprKey(bin) != exprKey(swapped) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if exprKey(&ir.ConstInt{V: 3}) == exprKey(&ir.ConstInt{V: 4}) {
		t.Error("distinct constants share a key")
	}
	// Non-commutative operands must not be canonicalized.
	a, b := &ir.VarRef{Name: "a"}, &ir.VarRef{Name: "b"}
	sub1 := &ir.Binary{Op: ir.OpSub, Typ: ir.I64, X: a, Y: b}
	sub2 := &ir.Binary{Op: ir.OpSub, Typ: ir.I64, X: b, Y: a}
	if exprKey(sub1) == exprKey(sub2) {
		t.Error("a-b and b-a share a key")
	}
	// Integer and float ops of the same shape must differ (division!).
	di := &ir.Binary{Op: ir.OpDiv, Typ: ir.I64, X: a, Y: b}
	df := &ir.Binary{Op: ir.OpDiv, Typ: ir.F64, X: a, Y: b}
	if exprKey(di) == exprKey(df) {
		t.Error("int and float division share a key")
	}
}

// exprKeySprintf is exprKey as first written with fmt.Sprintf. The key text
// is compared (commutative operands are ordered by it), so appendExprKey
// must reproduce it byte for byte.
func exprKeySprintf(e ir.Expr) string {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return fmt.Sprintf("i%d", ex.V)
	case *ir.ConstFloat:
		return fmt.Sprintf("f%x", ex.V)
	case *ir.VarRef:
		return "v:" + ex.Name
	case *ir.ArrayRef:
		return "m:" + ex.Name + "[" + exprKeySprintf(ex.Index) + "]"
	case *ir.Unary:
		return ex.Op.String() + "(" + exprKeySprintf(ex.X) + ")"
	case *ir.Binary:
		x, y := exprKeySprintf(ex.X), exprKeySprintf(ex.Y)
		if ex.Op.Commutative() && y < x {
			x, y = y, x
		}
		return fmt.Sprintf("(%s %s#%d %s)", x, ex.Op, ex.Typ, y)
	case *ir.CallExpr:
		parts := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			parts[i] = exprKeySprintf(a)
		}
		return "c:" + ex.Fn + "(" + strings.Join(parts, ",") + ")"
	case *ir.Select:
		return "s:(" + exprKeySprintf(ex.Cond) + "?" + exprKeySprintf(ex.X) + ":" + exprKeySprintf(ex.Y) + ")"
	}
	return fmt.Sprintf("?%T", e)
}

// TestExprKeyMatchesSprintf checks exprKey against the fmt-based formatter
// on edge-case constants, every operator shape, random trees and every
// expression of the 14 kernels before and after the HIR stage.
func TestExprKeyMatchesSprintf(t *testing.T) {
	a, b := &ir.VarRef{Name: "a"}, &ir.VarRef{Name: "bb"}
	var cases []ir.Expr
	for _, v := range []int64{0, -1, 7, math.MaxInt64, math.MinInt64} {
		cases = append(cases, &ir.ConstInt{V: v})
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e300, 5e-324,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		cases = append(cases, &ir.ConstFloat{V: v})
	}
	for op := ir.OpAdd; op <= ir.OpGe; op++ {
		for _, typ := range []ir.Type{ir.I64, ir.F64} {
			cases = append(cases,
				&ir.Binary{Op: op, Typ: typ, X: a, Y: b},
				&ir.Binary{Op: op, Typ: typ, X: b, Y: &ir.Binary{Op: ir.OpMul, Typ: typ, X: b, Y: a}})
		}
	}
	cases = append(cases,
		&ir.Unary{Op: ir.OpNeg, X: &ir.ArrayRef{Name: "m", Index: &ir.ConstInt{V: 3}}},
		&ir.CallExpr{Fn: "sqrt", Args: []ir.Expr{a, &ir.ConstFloat{V: 2}}},
		&ir.CallExpr{Fn: "f"},
		&ir.Select{Cond: a, X: b, Y: &ir.ConstInt{V: 1}},
		nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		cases = append(cases, randExpr(rng, 5))
	}
	for _, bm := range workloads.All() {
		for _, name := range sortedFuncNames(bm.Prog) {
			fn := bm.Prog.Funcs[name]
			for _, f := range []*ir.Func{fn, optimizeHIR(bm.Prog, fn, O3())} {
				rewriteStmtExprs(f.Clone().Body, func(e ir.Expr) ir.Expr {
					cases = append(cases, e)
					return e
				})
			}
		}
	}
	for _, e := range cases {
		if got, want := exprKey(e), exprKeySprintf(e); got != want {
			t.Errorf("exprKey = %q, want %q", got, want)
		}
	}
}

// TestQuickEvalBinaryMatchesEngine: the compile-time folder must agree with
// the execution engine's semantics on every operator (the engine's switch
// lives in sim; both were written against the same spec — this pins the
// folder half).
func TestQuickEvalBinaryTotalOnSafeInputs(t *testing.T) {
	f := func(xi, yi int16, opIdx uint8) bool {
		ops := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr,
			ir.OpXor, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt,
			ir.OpLe, ir.OpGt, ir.OpGe}
		op := ops[int(opIdx)%len(ops)]
		x, y := float64(xi), float64(yi)
		v, ok := evalBinary(op, ir.I64, x, y)
		if !ok {
			return false // these ops never fault
		}
		// Comparisons yield 0/1.
		if op.IsComparison() && v != 0 && v != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Division faults exactly on a zero divisor.
	if _, ok := evalBinary(ir.OpDiv, ir.I64, 5, 0); ok {
		t.Error("integer division by zero folded")
	}
	if _, ok := evalBinary(ir.OpMod, ir.I64, 5, 0); ok {
		t.Error("integer modulo by zero folded")
	}
	if v, ok := evalBinary(ir.OpDiv, ir.F64, 5, 0); !ok || !math.IsInf(v, 1) {
		t.Error("float division by zero must fold to +Inf")
	}
}
