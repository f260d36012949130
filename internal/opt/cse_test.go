package opt

import (
	"maps"
	"strings"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/workloads"
)

// countLoads counts array loads of name in the statement list.
func countLoads(list []ir.Stmt, name string) int {
	n := 0
	rewriteStmtExprs(list, func(e ir.Expr) ir.Expr {
		if ar, ok := e.(*ir.ArrayRef); ok && ar.Name == name {
			n++
		}
		return e
	})
	return n
}

func cseKernel() (*ir.Program, *ir.Func) {
	// Two identical loads of a[0] separated by a store to b: reusable
	// only under strict aliasing.
	prog := ir.NewProgram()
	prog.AddArray("a", ir.F64, 8)
	prog.AddArray("b", ir.F64, 8)
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.F64).Local("p", ir.F64).Local("q", ir.F64)
	fn := bb.Body(
		bb.Set(bb.V("p"), bb.FMul(bb.At("a", bb.I(0)), bb.FAdd(bb.V("x"), bb.F(1)))),
		bb.Set(bb.At("b", bb.I(1)), bb.V("p")),
		bb.Set(bb.V("q"), bb.FMul(bb.At("a", bb.I(0)), bb.FAdd(bb.V("x"), bb.F(1)))),
		bb.Ret(bb.FAdd(bb.V("p"), bb.V("q"))),
	)
	prog.AddFunc(fn)
	return prog, fn
}

func TestCSELoadReuseNeedsStrictAliasing(t *testing.T) {
	prog, fn := cseKernel()

	strict := fn.Clone()
	eliminateCommonSubexprs(strict, prog,
		cseOpts{global: true, strictAlias: true, loadReuse: true}, newTempNamer(strict))
	if got := countLoads(strict.Body, "a"); got != 1 {
		t.Errorf("strict aliasing: %d loads of a, want 1 (reused across the b-store)", got)
	}

	lax := fn.Clone()
	eliminateCommonSubexprs(lax, prog,
		cseOpts{global: true, strictAlias: false, loadReuse: true}, newTempNamer(lax))
	if got := countLoads(lax.Body, "a"); got != 2 {
		t.Errorf("no strict aliasing: %d loads of a, want 2 (store kills the fact)", got)
	}
}

func TestCSEStoreToSameArrayAlwaysKills(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("a", ir.F64, 8)
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.F64).Local("p", ir.F64).Local("q", ir.F64)
	fn := bb.Body(
		bb.Set(bb.V("p"), bb.FAdd(bb.At("a", bb.I(0)), bb.V("x"))),
		bb.Set(bb.At("a", bb.I(0)), bb.F(9)),
		bb.Set(bb.V("q"), bb.FAdd(bb.At("a", bb.I(0)), bb.V("x"))),
		bb.Ret(bb.FAdd(bb.V("p"), bb.V("q"))),
	)
	prog.AddFunc(fn)
	work := fn.Clone()
	eliminateCommonSubexprs(work, prog,
		cseOpts{global: true, strictAlias: true, loadReuse: true}, newTempNamer(work))
	if got := countLoads(work.Body, "a"); got != 2 {
		t.Errorf("%d loads of a, want 2 (same-array store must kill even under strict aliasing)", got)
	}
}

func TestCSEScalarReuseWithinSegment(t *testing.T) {
	prog := ir.NewProgram()
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.F64).ScalarParam("y", ir.F64).
		Local("p", ir.F64).Local("q", ir.F64)
	big := func() ir.Expr {
		return bb.FMul(bb.FAdd(bb.V("x"), bb.V("y")), bb.FSub(bb.V("x"), bb.V("y")))
	}
	fn := bb.Body(
		bb.Set(bb.V("p"), big()),
		bb.Set(bb.V("q"), bb.FAdd(big(), bb.F(1))),
		bb.Ret(bb.FAdd(bb.V("p"), bb.V("q"))),
	)
	prog.AddFunc(fn)
	work := fn.Clone()
	eliminateCommonSubexprs(work, prog, cseOpts{}, newTempNamer(work))
	// After CSE the (x+y)*(x-y) tree is computed once: count multiplies.
	muls := 0
	rewriteStmtExprs(work.Body, func(e ir.Expr) ir.Expr {
		if bin, ok := e.(*ir.Binary); ok && bin.Op == ir.OpMul {
			muls++
		}
		return e
	})
	if muls != 1 {
		t.Errorf("multiplies after CSE = %d, want 1", muls)
	}
}

func TestCSEAssignmentKillsFacts(t *testing.T) {
	prog := ir.NewProgram()
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.F64).Local("p", ir.F64).Local("q", ir.F64)
	big := func() ir.Expr {
		return bb.FMul(bb.FAdd(bb.V("x"), bb.F(2)), bb.FAdd(bb.V("x"), bb.F(3)))
	}
	fn := bb.Body(
		bb.Set(bb.V("p"), big()),
		bb.Set(bb.V("x"), bb.FAdd(bb.V("x"), bb.F(1))), // kills facts about x
		bb.Set(bb.V("q"), big()),
		bb.Ret(bb.FAdd(bb.V("p"), bb.V("q"))),
	)
	prog.AddFunc(fn)
	work := fn.Clone()
	eliminateCommonSubexprs(work, prog, cseOpts{}, newTempNamer(work))
	muls := 0
	rewriteStmtExprs(work.Body, func(e ir.Expr) ir.Expr {
		if bin, ok := e.(*ir.Binary); ok && bin.Op == ir.OpMul {
			muls++
		}
		return e
	})
	if muls != 2 {
		t.Errorf("multiplies = %d, want 2 (reassignment must kill the fact)", muls)
	}
}

func TestCSERegionCallKillsFacts(t *testing.T) {
	// The callee writes the global g, which no statement of f assigns:
	// only the region's user call can tell CSE that (g+1)*(g+2) changed.
	prog := ir.NewProgram()
	prog.AddScalar("g", ir.F64)
	cb := irbuild.NewFunc("bump")
	prog.AddFunc(cb.Body(cb.Set(cb.V("g"), cb.FAdd(cb.V("g"), cb.F(1))), cb.Ret(cb.F(0))))
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.F64).Local("p", ir.F64).Local("q", ir.F64)
	big := func() ir.Expr {
		return bb.FMul(bb.FAdd(bb.V("g"), bb.F(1)), bb.FAdd(bb.V("g"), bb.F(2)))
	}
	fn := bb.Body(
		bb.Set(bb.V("p"), big()),
		bb.If(bb.FGt(bb.V("x"), bb.F(0)), &ir.CallStmt{Fn: "bump"}),
		bb.Set(bb.V("q"), big()),
		bb.Ret(bb.FAdd(bb.V("p"), bb.V("q"))),
	)
	prog.AddFunc(fn)
	work := fn.Clone()
	eliminateCommonSubexprs(work, prog, cseOpts{skipBlocks: true, global: true}, newTempNamer(work))
	muls := 0
	rewriteStmtExprs(work.Body, func(e ir.Expr) ir.Expr {
		if bin, ok := e.(*ir.Binary); ok && bin.Op == ir.OpMul {
			muls++
		}
		return e
	})
	if muls != 2 {
		t.Errorf("multiplies = %d, want 2 (a call in the region must kill every fact)", muls)
	}
}

func TestCPropConstantsAndCopies(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("a", ir.F64, 8)
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.I64).Local("c", ir.I64).Local("d", ir.I64)
	fn := bb.Body(
		bb.Set(bb.V("c"), bb.I(3)),
		bb.Set(bb.V("d"), bb.V("c")),
		bb.Set(bb.At("a", bb.Add(bb.V("d"), bb.V("c"))), bb.F(1)),
		bb.Ret(bb.V("d")),
	)
	prog.AddFunc(fn)
	work := fn.Clone()
	propagateCopies(work)
	// The index d+c must have folded to 6.
	idxConst := false
	rewriteStmtExprs(work.Body, func(e ir.Expr) ir.Expr { return e })
	for _, s := range work.Body {
		if a, ok := s.(*ir.Assign); ok {
			if ar, ok := a.Lhs.(*ir.ArrayRef); ok {
				if ci, ok := ar.Index.(*ir.ConstInt); ok && ci.V == 6 {
					idxConst = true
				}
			}
		}
	}
	if !idxConst {
		t.Error("copy/constant propagation did not fold the index to 6")
	}
}

func TestCPropStopsAtControlFlow(t *testing.T) {
	prog := ir.NewProgram()
	bb := irbuild.NewFunc("f")
	bb.ScalarParam("x", ir.I64).Local("c", ir.I64)
	fn := bb.Body(
		bb.Set(bb.V("c"), bb.I(3)),
		bb.If(bb.Gt(bb.V("x"), bb.I(0)),
			bb.Set(bb.V("c"), bb.I(7)),
		),
		bb.Ret(bb.V("c")),
	)
	prog.AddFunc(fn)
	work := fn.Clone()
	propagateCopies(work)
	// The return must still read the variable, not a constant.
	ret := work.Body[len(work.Body)-1].(*ir.Return)
	if _, ok := ret.Value.(*ir.VarRef); !ok {
		t.Errorf("return value folded to %v despite the conditional kill", ret.Value)
	}
}

// --- region-summary oracle ------------------------------------------------

// The walks below are the region kills CSE used to recompute at every
// enclosing level. They are kept as the oracle for regionSummarizer.

// storedArrays collects names of arrays stored to anywhere in the list,
// following calls through prog when it is non-nil.
func storedArrays(list []ir.Stmt, prog *ir.Program, out map[string]bool) {
	var visitCall func(fn string)
	seen := map[string]bool{}
	visitCall = func(fn string) {
		if _, ok := ir.IsIntrinsic(fn); ok {
			return
		}
		if prog == nil || seen[fn] {
			return
		}
		seen[fn] = true
		if callee, ok := prog.Funcs[fn]; ok {
			storedArrays(callee.Body, prog, out)
		}
	}
	var walk func(list []ir.Stmt)
	checkCalls := func(e ir.Expr) {
		walkExpr(e, func(x ir.Expr) {
			if c, ok := x.(*ir.CallExpr); ok {
				visitCall(c.Fn)
			}
		})
	}
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch st := s.(type) {
			case *ir.Assign:
				if a, ok := st.Lhs.(*ir.ArrayRef); ok {
					out[a.Name] = true
					checkCalls(a.Index)
				}
				checkCalls(st.Rhs)
			case *ir.If:
				checkCalls(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case *ir.For:
				checkCalls(st.From)
				checkCalls(st.To)
				walk(st.Body)
			case *ir.While:
				checkCalls(st.Cond)
				walk(st.Body)
			case *ir.Return:
				if st.Value != nil {
					checkCalls(st.Value)
				}
			case *ir.CallStmt:
				visitCall(st.Fn)
				for _, a := range st.Args {
					checkCalls(a)
				}
			}
		}
	}
	walk(list)
}

func regionHasUserCall(list []ir.Stmt) bool {
	found := false
	var walk func(list []ir.Stmt)
	check := func(e ir.Expr) {
		if e != nil && analyzeExpr(e).hasUserCall {
			found = true
		}
	}
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch st := s.(type) {
			case *ir.Assign:
				check(st.Rhs)
				check(st.Lhs)
			case *ir.If:
				check(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case *ir.For:
				check(st.From)
				check(st.To)
				walk(st.Body)
			case *ir.While:
				check(st.Cond)
				walk(st.Body)
			case *ir.Return:
				check(st.Value)
			case *ir.CallStmt:
				if _, ok := ir.IsIntrinsic(st.Fn); !ok {
					found = true
				}
				for _, a := range st.Args {
					check(a)
				}
			}
		}
	}
	walk(list)
	return found
}

// oracleSummary is the old walk over a region's statement lists.
func oracleSummary(prog *ir.Program, lists ...[]ir.Stmt) (vars, arrays map[string]bool, userCall bool) {
	vars, arrays = map[string]bool{}, map[string]bool{}
	for _, l := range lists {
		assignedVars(l, vars)
		storedArrays(l, prog, arrays)
		userCall = userCall || regionHasUserCall(l)
	}
	return vars, arrays, userCall
}

// forEachRegion calls visit for every If, For and While nested in list,
// with the statement lists its region kill covers.
func forEachRegion(list []ir.Stmt, visit func(st ir.Stmt, lists ...[]ir.Stmt)) {
	for _, s := range list {
		switch st := s.(type) {
		case *ir.If:
			visit(st, st.Then, st.Else)
			forEachRegion(st.Then, visit)
			forEachRegion(st.Else, visit)
		case *ir.For:
			visit(st, st.Body)
			forEachRegion(st.Body, visit)
		case *ir.While:
			visit(st, st.Body)
			forEachRegion(st.Body, visit)
		}
	}
}

func setOrEmpty(m map[string]bool) map[string]bool {
	if m == nil {
		return map[string]bool{}
	}
	return m
}

// storingCallsProgram has regions whose user calls store arrays directly
// and through a nested callee, from statements and from expressions.
func storingCallsProgram() *ir.Program {
	prog := ir.NewProgram()
	for _, a := range []string{"a", "b", "c"} {
		prog.AddArray(a, ir.F64, 16)
	}
	ib := irbuild.NewFunc("inner")
	ib.ScalarParam("k", ir.I64)
	prog.AddFunc(ib.Body(ib.Set(ib.At("c", ib.V("k")), ib.F(1)), ib.Ret(ib.F(0))))
	ob := irbuild.NewFunc("outer")
	ob.ScalarParam("k", ir.I64)
	prog.AddFunc(ob.Body(
		ob.Set(ob.At("b", ob.V("k")), ob.F(2)),
		&ir.CallStmt{Fn: "inner", Args: []ir.Expr{ob.V("k")}},
		ob.Ret(ob.F(0)),
	))
	mb := irbuild.NewFunc("main")
	mb.ScalarParam("n", ir.I64).Local("s", ir.F64).Local("t", ir.F64)
	prog.AddFunc(mb.Body(
		mb.For("i", mb.I(0), mb.V("n"), 1,
			mb.Set(mb.V("t"), mb.FAdd(mb.At("a", mb.V("i")), mb.At("b", mb.V("i")))),
			mb.If(mb.Gt(mb.V("i"), mb.I(2)),
				mb.Set(mb.V("s"), mb.FAdd(mb.V("s"), mb.Call("outer", mb.V("i")))),
			),
			mb.Set(mb.V("s"), mb.FAdd(mb.V("s"), mb.FAdd(mb.At("a", mb.V("i")), mb.At("b", mb.V("i"))))),
		),
		mb.While(mb.Lt(mb.V("n"), mb.I(3)),
			&ir.CallStmt{Fn: "inner", Args: []ir.Expr{mb.V("n")}},
			mb.Set(mb.V("n"), mb.Add(mb.V("n"), mb.I(1))),
		),
		mb.Ret(mb.FAdd(mb.V("s"), mb.Call("sqrt", mb.V("t")))),
	))
	return prog
}

// TestRegionSummaryMatchesWalk checks the bottom-up summary of every If,
// For and While region of every function of the 14 kernels (and of
// storingCallsProgram) against the old per-region walk, on the source and
// on HIR-stage output (which carries temps, unrolled and hoisted loops). It
// then runs CSE and checks that the rewritten regions differ from their
// pre-rewrite summary only by fresh temps, which is what lets CSE reuse one
// summary for both kill points.
func TestRegionSummaryMatchesWalk(t *testing.T) {
	progs := map[string]*ir.Program{"storing-calls": storingCallsProgram()}
	for _, b := range workloads.All() {
		progs[b.Name] = b.Prog
	}
	regionsSeen, calleeStores := 0, 0
	for pname, prog := range progs {
		for _, name := range sortedFuncNames(prog) {
			src := prog.Funcs[name]
			inputs := []*ir.Func{src.Clone()}
			for _, fs := range []FlagSet{O3(), O3().Without(FUnrollLoops), O3().Without(FInlineFunctions)} {
				inputs = append(inputs, optimizeHIR(prog, src, fs))
			}
			for _, fn := range inputs {
				regions := map[ir.Stmt]*regionSummary{}
				newRegionSummarizer(prog, regions).list(fn.Body)
				forEachRegion(fn.Body, func(st ir.Stmt, lists ...[]ir.Stmt) {
					regionsSeen++
					got := regions[st]
					if got == nil {
						t.Fatalf("%s/%s: region %T has no summary", pname, name, st)
					}
					vars, arrays, call := oracleSummary(prog, lists...)
					if pname == "storing-calls" && arrays["c"] {
						calleeStores++ // only inner stores c
					}
					if !maps.Equal(setOrEmpty(got.vars), vars) || !maps.Equal(setOrEmpty(got.arrays), arrays) || got.userCall != call {
						t.Errorf("%s/%s: %T summary = %v %v %v, walk = %v %v %v",
							pname, name, st, got.vars, got.arrays, got.userCall, vars, arrays, call)
					}
				})

				locals := map[string]bool{}
				for _, l := range fn.Locals {
					locals[l.Name] = true
				}
				eliminateCommonSubexprs(fn, prog, cseOpts{followJumps: true, skipBlocks: true,
					global: true, strictAlias: true, loadReuse: true}, newTempNamer(fn))
				forEachRegion(fn.Body, func(st ir.Stmt, lists ...[]ir.Stmt) {
					before := regions[st]
					if before == nil {
						t.Fatalf("%s/%s: CSE created region %T", pname, name, st)
					}
					vars, arrays, call := oracleSummary(prog, lists...)
					for v := range vars {
						if !locals[v] && strings.HasPrefix(v, ".t") {
							delete(vars, v) // fresh CSE temp
						}
					}
					if !maps.Equal(setOrEmpty(before.vars), vars) || !maps.Equal(setOrEmpty(before.arrays), arrays) || before.userCall != call {
						t.Errorf("%s/%s: rewritten %T = %v %v %v, summary %v %v %v",
							pname, name, st, vars, arrays, call, before.vars, before.arrays, before.userCall)
					}
				})
			}
		}
	}
	if regionsSeen < 100 || calleeStores == 0 {
		t.Fatalf("checked %d regions, %d storing through a nested callee", regionsSeen, calleeStores)
	}
}
