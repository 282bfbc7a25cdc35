package power8

// Tests for the hardened harness: panic isolation, the event-budget
// watchdog, cancellation fan-out, and the reproducibility of fault-degraded runs.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// TestRunSuiteIsolatesFailures is the hardening acceptance check: with
// one of the paper's 18 experiments forced to panic and another forced
// past its event budget, the suite still returns all 18 reports in
// order — the two sabotaged ones FAILED with diagnostics, the other 16
// unaffected.
func TestRunSuiteIsolatesFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite")
	}
	suite := Experiments()
	if len(suite) != 18 {
		t.Fatalf("paper registry has %d experiments, want 18", len(suite))
	}
	const panicIdx, hangIdx = 3, 7
	suite[panicIdx].Run = func(*experiments.Context) *experiments.Report {
		panic("injected failure")
	}
	suite[hangIdx].Run = func(ctx *experiments.Context) *experiments.Report {
		for { // a simulation that never drains
			ctx.Budget.Charge(1 << 20)
		}
	}
	root := NewStatsRegistry("test")
	reports := RunSuite(suite, NewE870(), RunOptions{
		Quick:       true,
		Stats:       root,
		EventBudget: 1 << 40, // far above any quick-mode experiment
	})
	if len(reports) != len(suite) {
		t.Fatalf("got %d reports, want %d", len(reports), len(suite))
	}
	for i, rep := range reports {
		if rep.ID != suite[i].ID {
			t.Errorf("report %d is %q, want %q (suite order)", i, rep.ID, suite[i].ID)
		}
		switch i {
		case panicIdx:
			if !rep.Failed() || !strings.Contains(rep.Err, "injected failure") {
				t.Errorf("%s: want recovered panic diagnostic, got %q", rep.ID, rep.Err)
			}
			if !strings.Contains(rep.Err, "goroutine") {
				t.Errorf("%s: panic diagnostic carries no stack: %q", rep.ID, rep.Err)
			}
		case hangIdx:
			if !rep.Failed() || !strings.Contains(rep.Err, "event budget exhausted") {
				t.Errorf("%s: want watchdog trip, got %q", rep.ID, rep.Err)
			}
		default:
			if rep.Failed() {
				t.Errorf("%s: unaffected experiment failed: %s", rep.ID, rep.Err)
			} else if !rep.Passed() {
				t.Errorf("%s: checks regressed under the hardened harness", rep.ID)
			}
		}
	}
	h := root.Child("harness")
	if got := h.Counter("panics_recovered").Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	if got := h.Counter("watchdog_trips").Load(); got != 1 {
		t.Errorf("watchdog_trips = %d, want 1", got)
	}
}

// TestRunSuiteWatchdogTrips: a tiny budget stops a hanging experiment
// deterministically, with the spent count in the diagnostic.
func TestRunSuiteWatchdogTrips(t *testing.T) {
	suite := []Experiment{{
		ID: "hang", Title: "never drains",
		Run: func(ctx *experiments.Context) *experiments.Report {
			for {
				ctx.Budget.Charge(1)
			}
		},
	}}
	reports := RunSuite(suite, NewE870(), RunOptions{Workers: 1, EventBudget: 1000})
	rep := reports[0]
	if !rep.Failed() {
		t.Fatal("hanging experiment did not fail")
	}
	if !strings.Contains(rep.Err, "event budget exhausted (1000 of 1000 events)") {
		t.Errorf("diagnostic = %q", rep.Err)
	}
}

// TestRunSuiteWatchdogTripsRealExperiment: the budget threads through
// the real simulation paths (the walker's access loop), not just
// synthetic charge loops — a real experiment under a tiny budget fails
// cleanly instead of running to completion.
func TestRunSuiteWatchdogTripsRealExperiment(t *testing.T) {
	exp, ok := experiments.ByID("figure2")
	if !ok {
		t.Fatal("figure2 not registered")
	}
	reports := RunSuite([]Experiment{exp}, NewE870(), RunOptions{
		Quick: true, Workers: 1, EventBudget: 1000,
	})
	rep := reports[0]
	if !rep.Failed() || !strings.Contains(rep.Err, "event budget exhausted") {
		t.Errorf("figure2 under a 1000-event budget: Err = %q", rep.Err)
	}
}

// TestRunSuiteCancellation: closing the cancel channel mid-sweep stops
// the running experiment at its next budget poll and turns every
// not-yet-started experiment away, one cancelled report each.
func TestRunSuiteCancellation(t *testing.T) {
	cancel := make(chan struct{})
	hang := func(ctx *experiments.Context) *experiments.Report {
		for {
			ctx.Budget.Charge(1)
		}
	}
	suite := []Experiment{
		{ID: "closer", Title: "cancels the run", Run: func(ctx *experiments.Context) *experiments.Report {
			close(cancel)
			return hang(ctx)
		}},
		{ID: "second", Title: "never starts", Run: hang},
		{ID: "third", Title: "never starts", Run: hang},
	}
	root := NewStatsRegistry("test")
	reports := RunSuite(suite, NewE870(), RunOptions{Workers: 1, Cancel: cancel, Stats: root})
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	for _, rep := range reports {
		if !rep.Failed() || !strings.Contains(rep.Err, "cancelled") {
			t.Errorf("%s: want cancellation, got %q", rep.ID, rep.Err)
		}
	}
	if got := root.Child("harness").Counter("cancellations").Load(); got != 3 {
		t.Errorf("cancellations = %d, want 3", got)
	}
}

// TestFaultSuiteDeterministic: the same fault seed yields bit-identical
// degraded reports, run to run and regardless of worker count.
func TestFaultSuiteDeterministic(t *testing.T) {
	plan := fault.Random(42, E870Spec(), 5)
	if reflect.DeepEqual(plan, fault.Random(7, E870Spec(), 5)) {
		t.Fatal("different seeds produced identical plans")
	}
	if !reflect.DeepEqual(plan, fault.Random(42, E870Spec(), 5)) {
		t.Fatal("same seed produced different plans")
	}
	run := func(workers int) []*Report {
		return RunSuite(FaultExperiments(), NewE870(), RunOptions{
			Quick: true, Workers: workers, Faults: plan,
		})
	}
	a, b := run(2), run(1)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("report counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Failed() || b[i].Failed() {
			t.Fatalf("%s: degraded run failed: %q %q", a[i].ID, a[i].Err, b[i].Err)
		}
		if !reflect.DeepEqual(a[i].Lines, b[i].Lines) {
			t.Errorf("%s: degraded report lines differ between runs", a[i].ID)
		}
		if !reflect.DeepEqual(a[i].Checks, b[i].Checks) {
			t.Errorf("%s: degraded report checks differ between runs", a[i].ID)
		}
		if !a[i].Passed() {
			for _, c := range a[i].Checks {
				if !c.Pass() {
					t.Errorf("%s: %s", a[i].ID, c.String())
				}
			}
		}
	}
}
