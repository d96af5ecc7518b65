package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //hj17: directive verbs. Directives are written like Go compiler
// directives — no space after the slashes — either in a declaration's
// doc comment, as a trailing comment on the same line, or on the line
// immediately above a statement:
//
//	hotpath — the function is a per-packet hot path; hotalloc forbids
//	          allocation patterns in its body.
//	owns    — the function takes ownership of its *pkt.Packet
//	          parameters: calls passing a tracked packet to it count as
//	          a release, and pktown checks the body releases every
//	          packet parameter on every path.
//	sink    — like owns at call sites, but the body is trusted and not
//	          checked (terminal sinks the analyzer cannot see into).
//	ordered — the annotated map iteration has been audited: its order
//	          either cannot reach an artifact or is made deterministic
//	          in a way simdet cannot prove. Suppresses simdet there.
const (
	DirHotpath = "hotpath"
	DirOwns    = "owns"
	DirSink    = "sink"
	DirOrdered = "ordered"
)

const directivePrefix = "//hj17:"

// Directives holds every //hj17: directive of one package, indexed two
// ways: by file-and-line for statement-level suppression, and by
// declaration for function annotations.
type Directives struct {
	// lines maps filename -> line -> verbs present on that line.
	lines map[string]map[int][]string
	fset  *token.FileSet
}

// ScanDirectives collects //hj17: directives from the files' comments.
func ScanDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{lines: make(map[string]map[int][]string), fset: fset}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := d.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					d.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], verb)
			}
		}
	}
	return d
}

func parseDirective(text string) (verb string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", false
	}
	verb = strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexAny(verb, " \t"); i >= 0 {
		verb = verb[:i]
	}
	return verb, verb != ""
}

// OnLine reports whether the given verb appears on the node's line or
// the line immediately above it — the two placements accepted for
// statement-level directives such as //hj17:ordered.
func (d *Directives) OnLine(pos token.Pos, verb string) bool {
	p := d.fset.Position(pos)
	m := d.lines[p.Filename]
	if m == nil {
		return false
	}
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, v := range m[l] {
			if v == verb {
				return true
			}
		}
	}
	return false
}

// FuncHas reports whether the function declaration carries the verb in
// its doc comment or as a trailing comment on its func line.
func (d *Directives) FuncHas(fd *ast.FuncDecl, verb string) bool {
	if commentGroupHas(fd.Doc, verb) {
		return true
	}
	return d.OnLine(fd.Pos(), verb)
}

func commentGroupHas(cg *ast.CommentGroup, verb string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if v, ok := parseDirective(c.Text); ok && v == verb {
			return true
		}
	}
	return false
}

// funcVerbs returns the directive verbs attached to a function
// or interface-method declaration via doc comment or same-line comment.
func (d *Directives) funcVerbs(doc *ast.CommentGroup, pos token.Pos) []string {
	var verbs []string
	if doc != nil {
		for _, c := range doc.List {
			if v, ok := parseDirective(c.Text); ok {
				verbs = append(verbs, v)
			}
		}
	}
	p := d.fset.Position(pos)
	if m := d.lines[p.Filename]; m != nil {
		verbs = append(verbs, m[p.Line]...)
	}
	return verbs
}
