package analysis

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Facts is a set of "verb:symbol" strings — the cross-package view of
// //hj17: function annotations. A package's fact set is the union of
// its own annotations and those of everything it imports (each package
// re-exports its dependencies' facts, so readers only ever need their
// direct imports).
type Facts struct {
	set map[string]bool
}

// NewFacts returns an empty fact set.
func NewFacts() *Facts { return &Facts{set: make(map[string]bool)} }

// Add records one fact.
func (f *Facts) Add(fact string) { f.set[fact] = true }

// AddAll merges other into f.
func (f *Facts) AddAll(other *Facts) {
	if other == nil {
		return
	}
	for k := range other.set {
		f.set[k] = true
	}
}

// HasVerb reports whether any of the verbs is recorded for symbol.
func (f *Facts) HasVerb(sym string, verbs ...string) bool {
	for _, v := range verbs {
		if f.set[v+":"+sym] {
			return true
		}
	}
	return false
}

// MarshalJSON encodes the facts as a sorted string array, the payload
// stored in vetx files.
func (f *Facts) MarshalJSON() ([]byte, error) {
	out := make([]string, 0, len(f.set))
	for k := range f.set {
		out = append(out, k)
	}
	sort.Strings(out)
	return json.Marshal(out)
}

// UnmarshalJSON decodes the vetx payload.
func (f *Facts) UnmarshalJSON(data []byte) error {
	var in []string
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if f.set == nil {
		f.set = make(map[string]bool)
	}
	for _, k := range in {
		f.set[k] = true
	}
	return nil
}

// PackageFacts derives the facts a package exports from its parsed
// syntax alone: every function, method or interface-method declaration
// annotated with a //hj17: verb yields "verb:pkgpath[.Recv].Name".
// Working from syntax (rather than type information) lets the loader
// collect facts from dependency packages it never type-checks.
func PackageFacts(pkgPath string, fset *token.FileSet, files []*ast.File) *Facts {
	facts := NewFacts()
	dirs := ScanDirectives(fset, files)
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				sym := pkgPath + "."
				if r := recvTypeName(decl); r != "" {
					sym += r + "."
				}
				sym += decl.Name.Name
				for _, v := range dirs.funcVerbs(decl.Doc, decl.Pos()) {
					facts.Add(v + ":" + sym)
				}
			case *ast.GenDecl:
				if decl.Tok != token.TYPE {
					continue
				}
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						if len(m.Names) == 0 {
							continue // embedded interface
						}
						verbs := dirs.funcVerbs(m.Doc, m.Pos())
						for _, name := range m.Names {
							sym := pkgPath + "." + ts.Name.Name + "." + name.Name
							for _, v := range verbs {
								facts.Add(v + ":" + sym)
							}
						}
					}
				}
			}
		}
	}
	return facts
}

// recvTypeName extracts the receiver's type name ("Node" from
// "(*Node)", "Pool[T]" generics collapse to "Pool").
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// factPayload is the on-disk vetx format: this package's full
// (transitively merged) fact set.
type factPayload struct {
	Version int    `json:"version"`
	Facts   *Facts `json:"facts"`
}

// EncodeFacts renders a vetx payload.
func EncodeFacts(f *Facts) ([]byte, error) {
	return json.Marshal(factPayload{Version: 1, Facts: f})
}

// DecodeFacts parses a vetx payload; unknown or corrupt content yields
// an empty set (facts are advisory, never load-bearing for soundness).
func DecodeFacts(data []byte) *Facts {
	var p factPayload
	if err := json.Unmarshal(data, &p); err != nil || p.Facts == nil {
		return NewFacts()
	}
	return p.Facts
}

// strippedTestFile reports whether filename names a _test.go file; the
// analyzers skip them — the determinism and ownership contracts bind
// simulation code, not test harnesses.
func strippedTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strippedTestFile(fset.Position(pos).Filename)
}
