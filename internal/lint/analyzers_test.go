package lint_test

import (
	"testing"

	"github.com/fatgather/fatgather/internal/lint"
	"github.com/fatgather/fatgather/internal/lint/linttest"
)

// The fixtures under testdata/src give every analyzer at least one failing
// case (proving it fires), the approved idioms it must stay quiet on, the
// directive escape hatch, and a package outside its watch set.

func TestDetMapRange(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.DetMapRange,
		"detmaprange/internal/sim",
		"detmaprange/internal/core",
		"detmaprange/unwatched",
	)
}

func TestNonDetSource(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.NonDetSource,
		"nondetsource/internal/engine",
	)
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.FloatEq,
		"floateq/internal/geom",
		"floateq/internal/engine",
	)
}

func TestPublishDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.PublishDiscipline,
		"publishdiscipline/internal/sweep",
	)
}

func TestObsRead(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.ObsRead,
		"obsread/internal/sim",
		"obsread/unwatched",
	)
}

func TestErrClose(t *testing.T) {
	linttest.Run(t, "testdata/src", lint.ErrClose,
		"errclose/internal/sweep",
	)
}

func TestAnalyzerNamesAreUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
