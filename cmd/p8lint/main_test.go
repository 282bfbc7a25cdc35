package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tools/analyzers/analysis"
)

// TestRepoIsClean is the suite's meta-test: `p8lint ./...` must exit
// clean on the repository itself. Every contract the analyzers encode
// is load-bearing (determinism of the paper-order reports, the
// race-freedom of RunAllParallel, the walker's allocation budget), so
// a finding here is a real regression, not style noise. Deliberate,
// justified deviations are visible as //p8:allow comments in the tree,
// not as exclusions here.
func TestRepoIsClean(t *testing.T) {
	findings, err := Lint(".", []string{"./..."})
	if err != nil {
		t.Fatalf("p8lint failed to run: %v", err)
	}
	for _, d := range findings {
		t.Errorf("%v", d)
	}
	if n := len(findings); n > 0 {
		t.Fatalf("p8lint ./... reported %d finding(s); fix them or add //p8:allow with a justification", n)
	}
}

// TestSuppressionBudget pins the suppression debt: the itemized
// //p8:allow count must not exceed the checked-in .p8lint-budget.
// Shrinking the count is always fine (then lower the budget); growing
// it requires raising the budget in the same change, so the new
// justification is reviewed next to the number it moves.
func TestSuppressionBudget(t *testing.T) {
	res, root, err := LintDetailed(".", []string{"./..."})
	if err != nil {
		t.Fatalf("p8lint failed to run: %v", err)
	}
	budgetPath := filepath.Join(root, budgetFile)
	budget, ok, err := readBudget(budgetPath)
	if err != nil {
		t.Fatalf("reading %s: %v", budgetPath, err)
	}
	if !ok {
		t.Fatalf("%s is missing; the suppression budget must stay checked in", budgetPath)
	}
	if n := len(res.Allows); n > budget {
		for _, a := range res.Allows {
			t.Logf("%s:%d: %s: %s", a.File, a.Line, a.Analyzer, a.Justification)
		}
		t.Fatalf("%d suppression(s) exceed the budget of %d in %s; remove allows or raise the budget in the same change", n, budget, budgetPath)
	}
	if budget-len(res.Allows) > 5 {
		t.Errorf("budget %d is %d above the actual count %d; ratchet it down in %s", budget, budget-len(res.Allows), len(res.Allows), budgetPath)
	}
}

// TestUnknownAllowName: a //p8:allow naming no analyzer of the suite
// (here a pass that was folded into determinism) suppresses nothing,
// so p8lint must report it instead of counting it silently.
func TestUnknownAllowName(t *testing.T) {
	const stale = "determdeep"
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module allowcheck\n\ngo 1.22\n",
		"a.go": "package allowcheck\n\n" +
			"//p8:allow " + stale + ": stale waiver\nvar A = 1\n\n" +
			"//p8:allow determinism: known waiver\nvar B = 2\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := LintDetailed(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("p8lint failed to run: %v", err)
	}
	if len(res.Allows) != 2 {
		t.Fatalf("got %d allows, want 2 (unknown names still count against the budget)", len(res.Allows))
	}
	if len(res.Findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(res.Findings), res.Findings)
	}
	d := res.Findings[0]
	if d.Analyzer != analysis.SuppressorName || d.Pos.Line != 3 || !strings.Contains(d.Message, `"`+stale+`"`) {
		t.Errorf("got %v, want a %s finding on line 3 naming %s", d, analysis.SuppressorName, stale)
	}
}
