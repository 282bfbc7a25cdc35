package frozenmachine_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/frozenmachine"
)

// TestGolden checks the golden packages whose findings come from the
// depth-0 rule.
func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", frozenmachine.Analyzer, "client", "memocache")
}

// TestGoldenCallGraph checks the golden packages that exercise the
// call-graph closure (the former frozendeep pass's testdata), together with
// any depth-0 findings in the same files.
func TestGoldenCallGraph(t *testing.T) {
	analysistest.Run(t, "testdata", frozenmachine.Analyzer, "machine")
}
