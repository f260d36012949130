package opt

import (
	"fmt"
	"slices"
	"strconv"

	"peak/internal/ir"
)

// exprKey returns a canonical string for structural expression equality,
// with commutative operands ordered canonically so `a+b` and `b+a` match.
func exprKey(e ir.Expr) string {
	return string(appendExprKey(nil, e))
}

// appendExprKey appends exprKey(e) to b. A commutative binary node orders
// its operand keys bytewise, smaller first; the operands are written in
// place and rotated, so no intermediate strings are built.
func appendExprKey(b []byte, e ir.Expr) []byte {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return strconv.AppendInt(append(b, 'i'), ex.V, 10)
	case *ir.ConstFloat:
		return strconv.AppendFloat(append(b, 'f'), ex.V, 'x', -1, 64)
	case *ir.VarRef:
		return append(append(b, "v:"...), ex.Name...)
	case *ir.ArrayRef:
		b = append(append(append(b, "m:"...), ex.Name...), '[')
		return append(appendExprKey(b, ex.Index), ']')
	case *ir.Unary:
		b = append(append(b, ex.Op.String()...), '(')
		return append(appendExprKey(b, ex.X), ')')
	case *ir.Binary:
		// "(x op#typ y)"
		b = append(b, '(')
		x := len(b)
		b = appendExprKey(b, ex.X)
		y := len(b)
		b = appendExprKey(b, ex.Y)
		first := y - x
		if ex.Op.Commutative() && string(b[y:]) < string(b[x:y]) {
			rotateLeft(b[x:], first)
			first = len(b) - y
		}
		mid := len(b)
		b = append(append(b, ' '), ex.Op.String()...)
		b = strconv.AppendInt(append(b, '#'), int64(ex.Typ), 10)
		b = append(b, ' ')
		// Move the separator between the two operands.
		rotateLeft(b[x+first:], mid-(x+first))
		return append(b, ')')
	case *ir.CallExpr:
		b = append(append(append(b, "c:"...), ex.Fn...), '(')
		for i, a := range ex.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendExprKey(b, a)
		}
		return append(b, ')')
	case *ir.Select:
		b = appendExprKey(append(b, "s:("...), ex.Cond)
		b = appendExprKey(append(b, '?'), ex.X)
		b = appendExprKey(append(b, ':'), ex.Y)
		return append(b, ')')
	}
	return fmt.Appendf(b, "?%T", e)
}

// rotateLeft rotates s left by k bytes in place.
func rotateLeft(s []byte, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

// walkExpr visits e and all subexpressions, pre-order.
func walkExpr(e ir.Expr, visit func(ir.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch ex := e.(type) {
	case *ir.ArrayRef:
		walkExpr(ex.Index, visit)
	case *ir.Unary:
		walkExpr(ex.X, visit)
	case *ir.Binary:
		walkExpr(ex.X, visit)
		walkExpr(ex.Y, visit)
	case *ir.CallExpr:
		for _, a := range ex.Args {
			walkExpr(a, visit)
		}
	case *ir.Select:
		walkExpr(ex.Cond, visit)
		walkExpr(ex.X, visit)
		walkExpr(ex.Y, visit)
	}
}

// rewriteExpr rebuilds e bottom-up through f: children are rewritten first,
// then f is applied to the node. f may return a replacement or its argument.
func rewriteExpr(e ir.Expr, f func(ir.Expr) ir.Expr) ir.Expr {
	switch ex := e.(type) {
	case *ir.ArrayRef:
		ex.Index = rewriteExpr(ex.Index, f)
	case *ir.Unary:
		ex.X = rewriteExpr(ex.X, f)
	case *ir.Binary:
		ex.X = rewriteExpr(ex.X, f)
		ex.Y = rewriteExpr(ex.Y, f)
	case *ir.CallExpr:
		for i, a := range ex.Args {
			ex.Args[i] = rewriteExpr(a, f)
		}
	case *ir.Select:
		ex.Cond = rewriteExpr(ex.Cond, f)
		ex.X = rewriteExpr(ex.X, f)
		ex.Y = rewriteExpr(ex.Y, f)
	}
	return f(e)
}

// rewriteStmtExprs applies rw to every expression in the statement list,
// in evaluation order. Assignment targets have only their index expressions
// rewritten (the base VarRef/ArrayRef identity is preserved).
func rewriteStmtExprs(list []ir.Stmt, rw func(ir.Expr) ir.Expr) {
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			st.Rhs = rewriteExpr(st.Rhs, rw)
			if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
				ar.Index = rewriteExpr(ar.Index, rw)
			}
		case *ir.If:
			st.Cond = rewriteExpr(st.Cond, rw)
			rewriteStmtExprs(st.Then, rw)
			rewriteStmtExprs(st.Else, rw)
		case *ir.For:
			st.From = rewriteExpr(st.From, rw)
			st.To = rewriteExpr(st.To, rw)
			rewriteStmtExprs(st.Body, rw)
		case *ir.While:
			st.Cond = rewriteExpr(st.Cond, rw)
			rewriteStmtExprs(st.Body, rw)
		case *ir.Return:
			if st.Value != nil {
				st.Value = rewriteExpr(st.Value, rw)
			}
		case *ir.CallStmt:
			for i, a := range st.Args {
				st.Args[i] = rewriteExpr(a, rw)
			}
		}
	}
}

// assignedVars collects names of scalars assigned anywhere in the list
// (including loop variables of nested For statements).
func assignedVars(list []ir.Stmt, out map[string]bool) {
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			if v, ok := st.Lhs.(*ir.VarRef); ok {
				out[v.Name] = true
			}
		case *ir.If:
			assignedVars(st.Then, out)
			assignedVars(st.Else, out)
		case *ir.For:
			out[st.Var] = true
			assignedVars(st.Body, out)
		case *ir.While:
			assignedVars(st.Body, out)
		}
	}
}

// regionSummary is what executing a statement list can invalidate: the
// scalars it assigns (loop variables included), the arrays it stores (through
// user calls too) and whether it calls a user function. The maps are
// allocated on first insert.
type regionSummary struct {
	vars     map[string]bool
	arrays   map[string]bool
	userCall bool
}

func (s *regionSummary) addVar(name string) {
	if s.vars == nil {
		s.vars = map[string]bool{}
	}
	s.vars[name] = true
}

func (s *regionSummary) addArray(name string) {
	if s.arrays == nil {
		s.arrays = map[string]bool{}
	}
	s.arrays[name] = true
}

func (s *regionSummary) merge(o *regionSummary) {
	for v := range o.vars {
		s.addVar(v)
	}
	s.mergeArrays(o)
	s.userCall = s.userCall || o.userCall
}

func (s *regionSummary) mergeArrays(o *regionSummary) {
	for a := range o.arrays {
		s.addArray(a)
	}
}

// regionSummarizer computes region summaries in one bottom-up walk: a
// list's summary is the union of its statements' own effects and the
// summaries of the regions nested in it. When regions is non-nil, the walk
// records there the summary of every If (both arms together), For and
// While (the body) it passes. callees memoizes the arrays each user
// function stores, transitively.
type regionSummarizer struct {
	prog    *ir.Program
	regions map[ir.Stmt]*regionSummary
	callees map[string]*regionSummary
}

func newRegionSummarizer(prog *ir.Program, regions map[ir.Stmt]*regionSummary) *regionSummarizer {
	return &regionSummarizer{prog: prog, regions: regions, callees: map[string]*regionSummary{}}
}

func (rs *regionSummarizer) list(list []ir.Stmt) *regionSummary {
	s := &regionSummary{}
	for _, st := range list {
		switch st := st.(type) {
		case *ir.Assign:
			switch lhs := st.Lhs.(type) {
			case *ir.VarRef:
				s.addVar(lhs.Name)
			case *ir.ArrayRef:
				s.addArray(lhs.Name)
				rs.expr(s, lhs.Index)
			}
			rs.expr(s, st.Rhs)
		case *ir.If:
			rs.expr(s, st.Cond)
			r := rs.list(st.Then)
			r.merge(rs.list(st.Else))
			rs.nested(s, st, r)
		case *ir.For:
			s.addVar(st.Var)
			rs.expr(s, st.From)
			rs.expr(s, st.To)
			rs.nested(s, st, rs.list(st.Body))
		case *ir.While:
			rs.expr(s, st.Cond)
			rs.nested(s, st, rs.list(st.Body))
		case *ir.Return:
			rs.expr(s, st.Value)
		case *ir.CallStmt:
			rs.call(s, st.Fn)
			for _, a := range st.Args {
				rs.expr(s, a)
			}
		}
	}
	return s
}

func (rs *regionSummarizer) nested(s *regionSummary, st ir.Stmt, r *regionSummary) {
	if rs.regions != nil {
		rs.regions[st] = r
	}
	s.merge(r)
}

func (rs *regionSummarizer) expr(s *regionSummary, e ir.Expr) {
	walkExpr(e, func(x ir.Expr) {
		if c, ok := x.(*ir.CallExpr); ok {
			rs.call(s, c.Fn)
		}
	})
}

// call adds a call of fn: a user function marks the region as calling and
// contributes every array it stores.
func (rs *regionSummarizer) call(s *regionSummary, fn string) {
	if _, ok := ir.IsIntrinsic(fn); ok {
		return
	}
	s.userCall = true
	if rs.prog == nil {
		return
	}
	callee, ok := rs.prog.Funcs[fn]
	if !ok {
		return
	}
	cs, ok := rs.callees[fn]
	if !ok {
		rs.callees[fn] = &regionSummary{} // a placeholder ends call cycles
		sub := &regionSummarizer{prog: rs.prog, callees: rs.callees}
		cs = sub.list(callee.Body)
		rs.callees[fn] = cs
	}
	s.mergeArrays(cs)
}

// summarizeRegion returns the summary of one statement list.
func summarizeRegion(list []ir.Stmt, prog *ir.Program) *regionSummary {
	return newRegionSummarizer(prog, nil).list(list)
}

// exprProps summarizes an expression for legality checks. The name sets are
// nil until the expression loads an array or reads a variable.
type exprProps struct {
	hasLoad     bool
	hasUserCall bool
	hasCall     bool // any call, including intrinsics
	loads       map[string]bool
	vars        map[string]bool
}

func analyzeExpr(e ir.Expr) exprProps {
	var p exprProps
	walkExpr(e, func(x ir.Expr) {
		switch ex := x.(type) {
		case *ir.ArrayRef:
			p.hasLoad = true
			if p.loads == nil {
				p.loads = map[string]bool{}
			}
			p.loads[ex.Name] = true
		case *ir.VarRef:
			if p.vars == nil {
				p.vars = map[string]bool{}
			}
			p.vars[ex.Name] = true
		case *ir.CallExpr:
			p.hasCall = true
			if _, ok := ir.IsIntrinsic(ex.Fn); !ok {
				p.hasUserCall = true
			}
		}
	})
	return p
}

// hasUserCall reports whether e calls a user (non-intrinsic) function.
func hasUserCall(e ir.Expr) bool {
	found := false
	walkExpr(e, func(x ir.Expr) {
		if c, ok := x.(*ir.CallExpr); ok && !found {
			_, intrinsic := ir.IsIntrinsic(c.Fn)
			found = !intrinsic
		}
	})
	return found
}

// exprSize counts operator/reference nodes (a rough cost proxy).
func exprSize(e ir.Expr) int {
	n := 0
	walkExpr(e, func(ir.Expr) { n++ })
	return n
}

// tempNamer hands out fresh local names for compiler temporaries.
type tempNamer struct {
	fn   *ir.Func
	next int
}

func newTempNamer(fn *ir.Func) *tempNamer { return &tempNamer{fn: fn} }

// fresh declares and returns a new temporary local of the given type.
func (t *tempNamer) fresh(typ ir.Type) string {
	for {
		name := fmt.Sprintf(".t%d", t.next)
		t.next++
		if !t.fn.IsLocal(name) && !t.fn.IsParam(name) {
			t.fn.Locals = append(t.fn.Locals, ir.Local{Name: name, Typ: typ})
			return name
		}
	}
}

// exprType infers whether an expression is floating point (best effort,
// for temp typing; wrong guesses only affect cost class, not values).
func exprType(e ir.Expr, fn *ir.Func, prog *ir.Program) ir.Type {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return ir.I64
	case *ir.ConstFloat:
		return ir.F64
	case *ir.VarRef:
		for _, p := range fn.Params {
			if p.Name == ex.Name && !p.IsArray {
				return p.Typ
			}
		}
		for _, l := range fn.Locals {
			if l.Name == ex.Name {
				return l.Typ
			}
		}
		if prog != nil {
			for _, g := range prog.Scalars {
				if g.Name == ex.Name {
					return g.Typ
				}
			}
		}
		return ir.I64
	case *ir.ArrayRef:
		if prog != nil {
			if a, ok := prog.Array(ex.Name); ok {
				return a.Typ
			}
		}
		return ir.F64
	case *ir.Unary:
		return exprType(ex.X, fn, prog)
	case *ir.Binary:
		if ex.Op.IsComparison() {
			return ir.I64
		}
		return ex.Typ
	case *ir.CallExpr:
		return ir.F64
	case *ir.Select:
		return exprType(ex.X, fn, prog)
	}
	return ir.I64
}
