package lint_test

import (
	"os/exec"
	"strings"
	"testing"

	"github.com/fatgather/fatgather/internal/lint"
)

// moduleRoot locates the module directory so the self-check runs over the
// whole tree regardless of the test's working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// The repository must stay gatherlint-clean: every invariant the suite
// encodes holds on the tree that ships it. A finding here means either a
// real determinism hazard or a missing (reasoned) directive.
func TestRepositoryIsGatherlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// The loader must see every determinism-contract package: a rename that
// silently dropped one out of the watch set would turn the suite into a
// no-op without failing anything.
func TestWatchedPackagesExist(t *testing.T) {
	pkgs, err := lint.Load(moduleRoot(t), "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, p := range pkgs {
		have[p.Path] = true
	}
	for _, want := range []string{
		"github.com/fatgather/fatgather/internal/sim",
		"github.com/fatgather/fatgather/internal/engine",
		"github.com/fatgather/fatgather/internal/sweep",
		"github.com/fatgather/fatgather/internal/geom",
		"github.com/fatgather/fatgather/internal/adversary",
		"github.com/fatgather/fatgather/internal/metrics",
		"github.com/fatgather/fatgather/internal/experiments",
		"github.com/fatgather/fatgather/internal/obs",
		"github.com/fatgather/fatgather/internal/core",
		"github.com/fatgather/fatgather/internal/vision",
		"github.com/fatgather/fatgather/internal/workload",
		"github.com/fatgather/fatgather/internal/config",
		"github.com/fatgather/fatgather/internal/robot",
		"github.com/fatgather/fatgather/internal/baseline",
		"github.com/fatgather/fatgather/internal/trace",
	} {
		if !have[want] {
			t.Errorf("determinism-contract package %s not loaded", want)
		}
	}
}
