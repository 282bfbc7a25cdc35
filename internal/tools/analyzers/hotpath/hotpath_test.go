package hotpath_test

import (
	"testing"

	"repro/internal/tools/analyzers/analysistest"
	"repro/internal/tools/analyzers/hotpath"
)

// TestGolden checks the golden packages whose findings come from the
// depth-0 rule.
func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", hotpath.Analyzer, "hot")
}

// TestGoldenCallGraph checks the golden packages that exercise the
// call-graph closure (the former hotpathdeep pass's testdata), together with
// any depth-0 findings in the same files.
func TestGoldenCallGraph(t *testing.T) {
	analysistest.Run(t, "testdata", hotpath.Analyzer, "deep")
}
