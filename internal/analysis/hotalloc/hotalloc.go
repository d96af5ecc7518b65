// Package hotalloc implements the hot-path allocation analyzer of the
// hj17vet suite. Functions annotated //hj17:hotpath — the event core,
// the medium grant loop, qdisc enqueue/dequeue, scheme ticks — run once
// per simulated packet or per event; an allocation there multiplies by
// hundreds of millions of iterations per campaign. The pooled-hot-path
// and event-core PRs earned their speedups by removing exactly these
// patterns, and hotalloc keeps them from creeping back:
//
//   - function literals (closure environments are heap-allocated; hoist
//     the closure to a struct field built at setup time)
//   - bound method values not in call position (`sim.After(d, x.onRTO)`
//     allocates a closure binding x on every evaluation; pass a
//     package-level func(any) trampoline to AtCall/AfterCall, or a
//     func-typed field built at setup time)
//   - fmt.* calls (every argument is boxed into an interface) — except
//     inside the arguments of a panic, which is a dead-model trap, not
//     a hot path
//   - map and non-empty slice composite literals, and make() of a map,
//     slice or channel
//   - append to a local declared without capacity (`var s []T` /
//     `s := []T{}`): each growth reallocates; preallocate or reuse a
//     scratch slice as the medium's winners/expired buffers do
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions
//
// Taking the address of a composite struct literal (&Event{}) is NOT
// flagged: that is the designed pool-miss slow path of the free-list
// allocators, executed only until the pool warms up.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap-allocation patterns (closures, method values, fmt boxing,\n" +
		"map/slice literals, un-preallocated append, string building) in //hj17:hotpath functions",
	Run: run,
}

// Include/Exclude delimit the packages hotalloc applies to.
var (
	Include = []string{"repro/internal/"}
	Exclude = []string{"repro/internal/analysis"}
)

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), Include, Exclude) {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Dirs.FuncHas(fd, analysis.DirHotpath) {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

type span struct{ lo, hi token.Pos }

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	exempt := panicArgSpans(fd.Body)
	inPanic := func(pos token.Pos) bool {
		for _, s := range exempt {
			if s.lo <= pos && pos <= s.hi {
				return true
			}
		}
		return false
	}
	unprealloc := unpreallocLocals(pass, fd.Body)
	// Selectors in call position: x.m() calls the method directly.
	// Inspect visits a call before its callee, so the set is filled in
	// time.
	called := make(map[ast.Expr]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in //hj17:hotpath function %s allocates its "+
				"environment per call; hoist it to a field built at setup time", fd.Name.Name)
			return false // inner body is the closure's problem once hoisted

		case *ast.CallExpr:
			called[ast.Unparen(n.Fun)] = true
			checkCall(pass, fd, n, inPanic)

		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.MethodVal &&
				!called[n] && !inPanic(n.Pos()) {
				pass.Reportf(n.Pos(), "method value %s in //hj17:hotpath function %s allocates a "+
					"bound closure per evaluation; pass a package-level func(any) trampoline "+
					"to AtCall/AfterCall or hoist it to a field built at setup time",
					n.Sel.Name, fd.Name.Name)
			}

		case *ast.CompositeLit:
			if inPanic(n.Pos()) {
				return true
			}
			t := pass.TypesInfo.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in //hj17:hotpath function %s allocates; "+
					"build the map at setup time", fd.Name.Name)
			case *types.Slice:
				if len(n.Elts) > 0 {
					pass.Reportf(n.Pos(), "slice literal in //hj17:hotpath function %s allocates; "+
						"reuse a preallocated scratch slice", fd.Name.Name)
				}
			}

		case *ast.AssignStmt:
			checkAppend(pass, fd, n, unprealloc)

		case *ast.BinaryExpr:
			if n.Op == token.ADD && !inPanic(n.Pos()) {
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(n.Pos(), "string concatenation in //hj17:hotpath function %s "+
						"allocates; precompute the string or use a reused byte buffer", fd.Name.Name)
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, inPanic func(token.Pos) bool) {
	// Conversions that copy: string([]byte), []byte(string), ... The
	// callee of a conversion is a type expression (ident, []byte, etc.).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !inPanic(call.Pos()) {
			dst := pass.TypesInfo.Types[call].Type
			src := pass.TypesInfo.Types[call.Args[0]].Type
			if dst != nil && src != nil && conversionAllocates(dst, src) {
				pass.Reportf(call.Pos(), "string conversion in //hj17:hotpath function %s "+
					"copies its operand; keep one representation", fd.Name.Name)
			}
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && !inPanic(call.Pos()) {
			pass.Reportf(call.Pos(), "fmt.%s in //hj17:hotpath function %s boxes every argument "+
				"into an interface; move formatting off the hot path", obj.Name(), fd.Name.Name)
		}

	case *ast.Ident:
		if o, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			if o.Name() == "make" && !inPanic(call.Pos()) {
				if t := pass.TypesInfo.Types[call].Type; t != nil {
					switch t.Underlying().(type) {
					case *types.Map, *types.Slice, *types.Chan:
						pass.Reportf(call.Pos(), "make in //hj17:hotpath function %s allocates; "+
							"allocate at setup time and reuse", fd.Name.Name)
					}
				}
			}
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func conversionAllocates(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

// checkAppend flags `s = append(s, ...)` when s is a local declared
// without preallocation. Appends to fields, parameters, or locals
// initialized from a preallocated backing array (the scratch-slice
// idiom `w := m.winners[:0]`) are allowed.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, as *ast.AssignStmt, unprealloc map[types.Object]bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[lhs]
	if obj == nil {
		obj = pass.TypesInfo.Defs[lhs]
	}
	if obj != nil && unprealloc[obj] {
		pass.Reportf(as.Pos(), "append to un-preallocated local %q in //hj17:hotpath function %s "+
			"reallocates as it grows; preallocate with capacity or reuse a scratch slice",
			lhs.Name, fd.Name.Name)
	}
}

// unpreallocLocals collects slice-typed locals declared with no backing
// storage: `var s []T` or `s := []T{}`.
func unpreallocLocals(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil && isSlice(obj.Type()) {
						out[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				lit, ok := n.Rhs[i].(*ast.CompositeLit)
				if !ok || len(lit.Elts) != 0 {
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := pass.TypesInfo.Defs[id]; obj != nil && isSlice(obj.Type()) {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// panicArgSpans returns the source ranges of every panic(...) argument
// list in the body; allocation inside them is exempt — a panic is the
// end of the model, not a hot path.
func panicArgSpans(body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			spans = append(spans, span{call.Lparen, call.Rparen})
		}
		return true
	})
	return spans
}
