package lint

import (
	"go/ast"

	"github.com/fatgather/fatgather/internal/lint/analysis"
)

// PublishDiscipline flags direct os.Rename/os.Link/os.WriteFile calls in the
// sweep package outside the blessed atomic-publish helpers.
//
// Everything a sweep worker makes visible to its peers — lease generations
// and compacted stores — must appear atomically and complete, or a
// concurrent reader can observe a torn file, judge it corrupt and re-run (or
// worse, reclaim) work. The repo's discipline is write-to-
// private-temp then hard-link (first publication; fails EEXIST so exactly one
// contender wins) or rename (replacement), and it lives in a small set of
// audited helpers. Any new os-level publish call belongs inside one of them,
// or in a new helper added to publishAllowlist during review.
var PublishDiscipline = &analysis.Analyzer{
	Name: "publishdiscipline",
	Doc:  "flag raw file publication in internal/sweep outside the audited temp+link/rename helpers",
	Run:  runPublishDiscipline,
}

// publishPackages are the import-path suffixes PublishDiscipline applies to.
var publishPackages = []string{"internal/sweep"}

// publishAllowlist names the audited publish helpers: Store.rewrite
// (compaction) and FSBackend.create (the exclusive create behind every lease
// generation).
var publishAllowlist = map[string]bool{
	"rewrite": true,
	"create":  true,
}

// publishCalls are the os package functions that make bytes visible at a
// path.
var publishCalls = map[string]bool{
	"Rename": true, "Link": true, "WriteFile": true,
}

func runPublishDiscipline(pass *analysis.Pass) error {
	if !pkgMatchesAny(pass.Pkg.Path(), publishPackages) {
		return nil
	}
	for _, f := range pass.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !publishCalls[fn.Name()] {
				return true
			}
			if publishAllowlist[enclosingFuncName(file, call.Pos())] {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct os.%s in internal/sweep: peers may observe a torn file; publish through the temp+link/rename helpers (FSBackend.create, Store.rewrite)", fn.Name())
			return true
		})
	}
	return nil
}
