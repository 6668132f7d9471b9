package lint

import (
	"go/ast"
	"go/types"

	"github.com/fatgather/fatgather/internal/lint/analysis"
)

// NonDetSource flags calls that read a nondeterministic source — the wall
// clock, the process environment, or math/rand's implicitly seeded global
// generator — in determinism-contract packages.
//
// Every random draw in a result-producing path must come from a seeded
// *rand.Rand derived from the cell's coordinates (engine.DeriveSeed), and
// every timestamp from an injected clock (the lease layer's `now` field is
// the pattern). rand.New/rand.NewSource and friends are therefore allowed —
// they construct seeded generators — while the package-level draws
// (rand.Intn, rand.Float64, rand.Perm, ...) and time.Now/Since/Until and
// os.Getenv/LookupEnv/Environ are flagged. Only calls are detected: storing
// time.Now itself into an injectable clock field is exactly the approved
// remediation. Wall-clock telemetry that never feeds a pinned result (worker
// Elapsed, lease heartbeats) carries //gatherlint:ignore nondetsource
// directives naming that justification.
var NonDetSource = &analysis.Analyzer{
	Name: "nondetsource",
	Doc:  "flag wall-clock, environment and global math/rand reads in determinism-contract packages",
	Run:  runNonDetSource,
}

// seededConstructors are the math/rand and math/rand/v2 package-level
// functions that build explicitly seeded generators rather than drawing from
// the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNonDetSource(pass *analysis.Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	// internal/obs is the one watched package allowed to read the wall clock
	// wholesale: timestamps and uptimes are telemetry's purpose, and the
	// one-way contract (enforced by obsread) guarantees none of those reads
	// can flow back into results. The scope is exactly the obs package —
	// packages that *use* obs stay fully watched.
	if pkgHasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(),
						"call to time.%s reads the wall clock in a determinism-contract package; inject a clock (cf. FSBackend.now) or //gatherlint:ignore nondetsource <reason>", fn.Name())
				}
			case "os":
				switch fn.Name() {
				case "Getenv", "LookupEnv", "Environ":
					pass.Reportf(call.Pos(),
						"call to os.%s reads the process environment in a determinism-contract package; thread configuration through explicit options", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					pass.Reportf(call.Pos(),
						"call to %s.%s draws from the global generator; use a seeded *rand.Rand (engine.DeriveSeed) instead", pkgBase(fn.Pkg().Path()), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

func pkgBase(path string) string {
	if path == "math/rand/v2" {
		return "rand/v2"
	}
	return "rand"
}
