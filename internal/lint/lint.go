package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/fatgather/fatgather/internal/lint/analysis"
)

// deterministicPackages lists the import-path suffixes of the packages under
// the determinism contract (ARCHITECTURE.md): everything that contributes to
// pinned trace hashes or sweep tables. detmaprange and nondetsource apply to
// all of them; the narrower analyzers name their own subsets below.
var deterministicPackages = []string{
	"internal/sim",
	"internal/engine",
	"internal/sweep",
	"internal/geom",
	"internal/geom/incr",
	"internal/adversary",
	"internal/metrics",
	"internal/experiments",
	// The Compute path and the inputs of every run: the local algorithm, its
	// visibility model, workload generation, configurations, the robot state
	// machine, the baseline algorithms and the recorded traces.
	"internal/core",
	"internal/vision",
	"internal/workload",
	"internal/config",
	"internal/robot",
	"internal/baseline",
	"internal/trace",
	// internal/obs is under the contract for the generic analyzers — its
	// snapshots must render deterministically (collect-then-sort map walks,
	// no float equality) — but is exempted by name from nondetsource (reading
	// the wall clock is its job; see runNonDetSource) and from obsread (it
	// hosts the read side; see runObsRead).
	"internal/obs",
}

// pkgHasSuffix reports whether a package import path ends in the given
// slash-separated suffix ("a/b/internal/sim" and "internal/sim" both match
// "internal/sim"; "internal/simx" does not). Fixture packages under
// testdata/src get paths like "detmaprange/internal/sim", which is what makes
// the same analyzers testable against synthetic trees.
func pkgHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pkgMatchesAny reports whether the import path ends in any of the suffixes.
func pkgMatchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// isDeterministicPkg reports whether the package is under the determinism
// contract.
func isDeterministicPkg(path string) bool {
	return pkgMatchesAny(path, deterministicPackages)
}

// Analyzers returns the gatherlint suite in stable (reporting) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetMapRange,
		NonDetSource,
		FloatEq,
		PublishDiscipline,
		ErrClose,
		ObsRead,
	}
}

// Finding is one rendered diagnostic: which analyzer fired, where, and why.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Apply runs the analyzers over one package and returns the findings that
// survive //gatherlint:ignore directives, plus a finding for every malformed
// directive (a directive without a reason suppresses nothing: the contract is
// that every exemption documents why it is safe).
func Apply(pkg *Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	dirs := directivesFor(pkg)
	var out []Finding
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if dirs.suppresses(pos, a.Name) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	out = append(out, dirs.malformed...)
	return out, nil
}

// Run applies the analyzers to every package and returns all surviving
// findings sorted by file position.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var all []Finding
	for _, pkg := range pkgs {
		fs, err := Apply(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// ---- ignore directives ----

// directivePrefix introduces an exemption comment:
//
//	//gatherlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the flagged line or on the line directly above it. The reason is
// mandatory; "all" exempts every analyzer.
const directivePrefix = "//gatherlint:ignore"

// directiveIndex records, per file and line, which analyzers are exempted.
type directiveIndex struct {
	// byLine maps file -> line -> exempted analyzer names (or "all").
	byLine    map[string]map[int][]string
	malformed []Finding
}

func directivesFor(pkg *Package) *directiveIndex {
	idx := &directiveIndex{byLine: make(map[string]map[int][]string)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Finding{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "gatherlint:ignore needs an analyzer list and a reason: //gatherlint:ignore <analyzer>[,<analyzer>] <why this is safe>",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					idx.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], names...)
			}
		}
	}
	return idx
}

// suppresses reports whether a directive on the diagnostic's line, or on the
// line directly above it, exempts the analyzer.
func (idx *directiveIndex) suppresses(pos token.Position, analyzer string) bool {
	m := idx.byLine[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range m[line] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// ---- shared AST/type helpers ----

// calleeFunc resolves a call expression to the *types.Func it invokes, or nil
// for calls through non-function objects (conversions, function-typed
// variables, built-ins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// enclosingFuncName returns the name of the function declaration containing
// pos ("" at file scope). Method names are reported bare ("create", not
// "(*FSBackend).create"), which is what the per-function allowlists
// key on; function literals keep their enclosing declaration's name, so an
// allowlist entry covers a helper including its closures.
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// innermostFuncBody returns the body of the innermost function (declaration
// or literal) whose extent contains pos, or nil at file scope.
func innermostFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch d := n.(type) {
		case *ast.FuncDecl:
			body = d.Body
		case *ast.FuncLit:
			body = d.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			if best == nil || (body.Pos() >= best.Pos() && body.End() <= best.End()) {
				best = body
			}
		}
		return true
	})
	return best
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isOSFile reports whether t is os.File or *os.File.
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}
