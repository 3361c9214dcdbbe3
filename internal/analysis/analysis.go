// Package analysis hosts p4pvet's repo-specific static analyzers. Each
// analyzer mechanically enforces an invariant whose violation has
// already cost this codebase a production-class bug (see DESIGN.md §8):
//
//   - lockheld: no sync mutex held across I/O, network, or JSON
//     encode/decode calls (the serialized-distance-query bug).
//   - ctxflow: library code threads the caller's context.Context
//     instead of minting context.Background()/TODO().
//   - floatsentinel: no ==/!= between float expressions and non-zero
//     constants (the d == Unreachable wire-sentinel pattern).
//   - sleeptest: no wall-clock time.Sleep in _test.go files (the
//     flaky-under-race test class).
//
// ctxflow and sleeptest are one callRule each: a static call of a named
// function in one class of file. Every rule looks at one typechecked
// unit at a time.
//
// Findings can be suppressed, one rule at a time, with a mandatory
// reason:
//
//	//p4pvet:ignore <rule> <reason...>
//
// placed either at the end of the offending line, where it covers that
// line only, or on its own line immediately above it, where it covers
// the next line only. A suppression without a reason (or naming an
// unknown rule) is itself reported under the rule name "suppress".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one named check; Run inspects one typechecked unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pkg) []Finding
}

// Analyzers returns every registered analyzer, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockHeld, CtxFlow, FloatSentinel, SleepTest}
}

// suppressRule names the pseudo-rule under which malformed
// //p4pvet:ignore comments are reported.
const suppressRule = "suppress"

const ignoreMarker = "p4pvet:ignore"

// Suppressions indexes //p4pvet:ignore comments by file and the one
// line each covers.
type Suppressions struct {
	// byLine maps filename -> covered line -> set of suppressed rules.
	byLine map[string]map[int]map[string]bool
}

// Suppressed reports whether a finding's line is covered by an ignore
// comment.
func (s *Suppressions) Suppressed(f Finding) bool {
	return s.byLine[f.Pos.Filename][f.Pos.Line][f.Rule]
}

// ParseSuppressions scans a package's comments for //p4pvet:ignore
// markers. Malformed markers — a missing reason, or a rule no analyzer
// implements — are returned as findings so they fail the build instead
// of silently suppressing nothing.
func ParseSuppressions(p *Pkg) (*Suppressions, []Finding) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	s := &Suppressions{byLine: map[string]map[int]map[string]bool{}}
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rule, errMsg, ok := parseIgnoreDirective(c.Text, known)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if errMsg != "" {
					bad = append(bad, Finding{Pos: pos, Rule: suppressRule, Msg: errMsg})
					continue
				}
				line := pos.Line
				if !codeBefore(p.Fset, file, c) {
					line++ // a directive on its own line covers the next one
				}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					s.byLine[pos.Filename] = lines
				}
				if lines[line] == nil {
					lines[line] = map[string]bool{}
				}
				lines[line][rule] = true
			}
		}
	}
	return s, bad
}

// codeBefore reports whether any syntax of file sits left of c on c's
// line, i.e. whether c trails code rather than standing on its own.
// Every token on a line starts or ends some node, so node bounds are
// enough; nodes that do not span the line are not descended into.
func codeBefore(fset *token.FileSet, file *ast.File, c *ast.Comment) bool {
	tf := fset.File(c.Pos())
	line := tf.Line(c.Pos())
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || found || tf.Line(n.Pos()) > line || tf.Line(n.End()) < line {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		found = (tf.Line(n.Pos()) == line && n.Pos() < c.Pos()) || (tf.Line(n.End()) == line && n.End() <= c.Pos())
		return !found
	})
	return found
}

// parseIgnoreDirective parses one comment's text as a p4pvet:ignore
// directive. ok is false when the comment is not a directive at all.
// For directives, errMsg is non-empty when the directive is malformed
// (no rule, unknown rule, or missing reason) and describes why;
// otherwise rule names the validated suppressed rule. This is the unit
// the FuzzIgnoreDirective target exercises.
func parseIgnoreDirective(comment string, known map[string]bool) (rule, errMsg string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, ignoreMarker)
	if !ok {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "p4pvet:ignore needs a rule name and a reason", true
	}
	rule = fields[0]
	if !known[rule] {
		return "", fmt.Sprintf("p4pvet:ignore names unknown rule %q", rule), true
	}
	if len(fields) < 2 {
		return "", fmt.Sprintf("p4pvet:ignore %s is missing its mandatory reason", rule), true
	}
	return rule, "", true
}

// RunAll runs the given analyzers over a package and applies its
// suppressions, returning the live findings and the count of
// suppressed ones. Malformed suppressions are appended as "suppress"
// findings.
func RunAll(p *Pkg, analyzers []*Analyzer) (kept []Finding, suppressed int) {
	sup, bad := ParseSuppressions(p)
	var all []Finding
	for _, a := range analyzers {
		all = append(all, a.Run(p)...)
	}
	for _, f := range all {
		if sup.Suppressed(f) {
			suppressed++
		} else {
			kept = append(kept, f)
		}
	}
	kept = append(kept, bad...)
	SortFindings(kept)
	return kept, suppressed
}

// SortFindings orders findings by file, then line, then rule, the
// order every driver and test relies on.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
}

// forEachFuncBody calls fn with the body of every function declaration
// and function literal in p, nested literals included, each as its own
// unit, together with the file it sits in.
func forEachFuncBody(p *Pkg, fn func(f *ast.File, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(f, n.Body)
				}
			case *ast.FuncLit:
				fn(f, n.Body)
			}
			return true
		})
	}
}

// inspectSkippingFuncLits walks n, calling fn for every node, but does
// not descend into function literals: their bodies execute under their
// own locking discipline, not the enclosing function's.
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
