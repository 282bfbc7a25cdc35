package power8

import (
	"strings"
	"testing"
)

func TestE870Spec(t *testing.T) {
	s := E870Spec()
	if s.TotalCores() != 64 || s.TotalThreads() != 512 {
		t.Fatalf("E870 = %d cores / %d threads", s.TotalCores(), s.TotalThreads())
	}
	if MaxSMPSpec().TotalCores() != 192 {
		t.Fatal("max SMP wrong")
	}
}

func TestRunKnownExperiment(t *testing.T) {
	m := NewE870()
	rep, err := Run("table3", m, RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table3" || len(rep.Lines) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.Passed() {
		for _, c := range rep.Checks {
			if !c.Pass() {
				t.Errorf("failed: %s", c.String())
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", NewE870(), RunOptions{}); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestRunIsolatesTrip: Run goes through RunSuite, so a watchdog trip
// inside a single experiment comes back as its failed report instead of
// a panic in the caller.
func TestRunIsolatesTrip(t *testing.T) {
	rep, err := Run("figure2", NewE870(), RunOptions{Quick: true, EventBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Err, "event budget exhausted") {
		t.Errorf("figure2 under a 1000-event budget: Err = %q", rep.Err)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	if got := len(Experiments()); got != 18 {
		t.Errorf("registry size = %d, want 18 (tables I-VI + figures 1-12)", got)
	}
}

func TestRunSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	reports := RunSuite(Experiments(), NewE870(), RunOptions{Quick: true})
	if len(reports) != 18 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if !rep.Passed() {
			for _, c := range rep.Checks {
				if !c.Pass() {
					t.Errorf("%s: %s", rep.ID, c.String())
				}
			}
		}
	}
}
