// Package simdet implements the determinism analyzer of the hj17vet
// suite. The repository's core contract is that simulation artifacts
// are byte-identical across worker counts, cache hits and resumes; that
// contract dies the moment simulation or artifact code consults an
// ambient nondeterminism source. simdet machine-checks three rules
// inside the simulation scope (internal/..., minus the analyzer suite
// itself):
//
//  1. No ambient clocks or environment: time.Now/Since/Until/Sleep,
//     os.Getenv/LookupEnv/Environ/Hostname are forbidden — virtual time
//     comes from sim.Sim, configuration from explicit parameters.
//  2. No global math/rand (or math/rand/v2): all randomness must flow
//     from the per-world seeded sim.Rand. Importing the package at all
//     is an error.
//  3. No unordered map iteration feeding an output: a `range` over a
//     map whose body appends to an outer slice, writes to an encoder or
//     writer, or accumulates a float is flagged — unless the collected
//     slice is demonstrably sorted later in the same function, or the
//     loop carries an //hj17:ordered directive recording a human audit.
package simdet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the simdet analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Doc: "forbid nondeterminism sources (wall clock, environment, global math/rand,\n" +
		"unsorted map iteration feeding output) in simulation and artifact packages",
	Run: run,
}

// Scope controls which packages simdet applies to; tests override it to
// point at fixtures. A package is in scope when its import path has one
// of the Include prefixes and none of the Exclude prefixes — except
// that testdata packages under an excluded prefix stay in scope, so the
// analyzer's own fixtures exercise it.
var (
	Include = []string{"repro/internal/"}
	Exclude = []string{
		// The analyzer suite itself is not simulation code.
		"repro/internal/analysis",
	}
)

// forbiddenFuncs maps package path -> function names whose call (or
// mention) is a determinism violation.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":   "virtual time comes from sim.Sim.Now",
		"Since": "virtual time comes from sim.Sim.Now",
		"Until": "virtual time comes from sim.Sim.Now",
		"Sleep": "simulation code must not block on wall time",
	},
	"os": {
		"Getenv":    "configuration must arrive as explicit parameters",
		"LookupEnv": "configuration must arrive as explicit parameters",
		"Environ":   "configuration must arrive as explicit parameters",
		"Hostname":  "configuration must arrive as explicit parameters",
	},
}

// forbiddenImports are packages simulation code may not import at all.
var forbiddenImports = map[string]string{
	"math/rand":    "use the per-world seeded sim.Rand",
	"math/rand/v2": "use the per-world seeded sim.Rand",
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), Include, Exclude) {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		checkImports(pass, file)
		checkFile(pass, file)
	}
	return nil
}

func checkImports(pass *analysis.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if why, bad := forbiddenImports[path]; bad {
			pass.Reportf(imp.Pos(), "import of %s is forbidden in simulation code: %s", path, why)
		}
	}
}

func checkFile(pass *analysis.Pass, file *ast.File) {
	// Walk with enclosing-function tracking so the map-range check can
	// look for a later sort in the same function.
	var funcStack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			funcStack = append(funcStack, n)
			ast.Inspect(funcBody(n), func(inner ast.Node) bool {
				if inner == nil {
					return false
				}
				if inner != funcBody(n) {
					if _, ok := inner.(*ast.FuncLit); ok {
						walk(inner)
						return false
					}
				}
				visit(pass, inner, funcStack)
				return true
			})
			funcStack = funcStack[:len(funcStack)-1]
			return false
		}
		return true
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			if fd.Body != nil {
				walk(fd)
			}
			return false
		}
		return true
	})
}

func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

func visit(pass *analysis.Pass, n ast.Node, funcStack []ast.Node) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		checkForbiddenSelector(pass, n)
	case *ast.RangeStmt:
		checkMapRange(pass, n, enclosing(funcStack))
	}
}

func enclosing(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

func checkForbiddenSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	names := forbiddenFuncs[obj.Pkg().Path()]
	if names == nil {
		return
	}
	if why, bad := names[obj.Name()]; bad {
		pass.Reportf(sel.Pos(), "%s.%s is nondeterministic in simulation code: %s",
			obj.Pkg().Path(), obj.Name(), why)
	}
}

// checkMapRange flags a range over a map whose body builds output in
// iteration order.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, fn ast.Node) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Dirs.OnLine(rng.Pos(), analysis.DirOrdered) {
		return
	}

	var (
		appendDests  []types.Object
		appendPos    token.Pos
		writerPos    token.Pos
		floatAccPos  token.Pos
		floatAccName string
	)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// y = append(y, ...) to a variable declared outside the loop.
			if dest, ok := appendTarget(pass, n); ok {
				if declaredOutside(pass, dest, rng) {
					appendDests = append(appendDests, dest)
					if appendPos == token.NoPos {
						appendPos = n.Pos()
					}
				}
			}
			// f += v where f is a float accumulated across iterations:
			// float addition is not associative, so the sum depends on
			// map order.
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil && isFloat(obj.Type()) &&
						declaredOutside(pass, obj, rng) {
						floatAccPos, floatAccName = n.Pos(), id.Name
					}
				}
			}
		case *ast.CallExpr:
			if isOutputCall(pass, n) {
				if writerPos == token.NoPos {
					writerPos = n.Pos()
				}
			}
		}
		return true
	})

	switch {
	case writerPos != token.NoPos:
		pass.Reportf(rng.Pos(), "map iteration writes output in nondeterministic order; "+
			"iterate sorted keys or annotate //hj17:ordered after an audit")
	case floatAccPos != token.NoPos:
		pass.Reportf(rng.Pos(), "map iteration accumulates float %q in nondeterministic order "+
			"(float addition is not associative); iterate sorted keys or annotate //hj17:ordered",
			floatAccName)
	case len(appendDests) > 0:
		// The collect-then-sort idiom is fine: every appended slice must
		// be passed to a sort call later in the same function.
		for _, dest := range appendDests {
			if !sortedLater(pass, dest, rng, fn) {
				pass.Reportf(rng.Pos(), "map iteration appends to %q in nondeterministic order "+
					"without sorting it afterwards; sort the slice or annotate //hj17:ordered",
					dest.Name())
				return
			}
		}
	}
}

func appendTarget(pass *analysis.Pass, as *ast.AssignStmt) (types.Object, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return nil, false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj, obj != nil
}

func declaredOutside(pass *analysis.Pass, obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// outputMethodNames are method names whose call inside a map loop means
// the iteration order reaches an output stream.
var outputMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeToken": true, "WriteAll": true, "WriteRecord": true,
}

func isOutputCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch obj.Name() {
		case "Fprintf", "Fprintln", "Fprint", "Printf", "Println", "Print":
			return true
		}
	}
	return outputMethodNames[obj.Name()]
}

// sortedLater reports whether dest is passed to a sort.* / slices.*
// call after the range statement within the enclosing function.
func sortedLater(pass *analysis.Pass, dest types.Object, rng *ast.RangeStmt, fn ast.Node) bool {
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(funcBody(fn), func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rng.End() {
			return !sorted
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == dest {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}
