package experiments

// Concurrency-safety test for the experiment registry and the shared
// Machine: the simulated experiments run together on one Machine via
// parallel.Map, exactly as power8.RunSuite drives them. Under
// `go test -race ./internal/...` this verifies the machine model's
// read-only-after-construction contract, and the content comparison
// against a sequential pass verifies report determinism.

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/machine"
	"repro/internal/parallel"
)

func TestSimulatedExperimentsRaceFree(t *testing.T) {
	// The fully simulated experiments: no host-kernel wall-clock in
	// their reports, so sequential and parallel output must be
	// byte-identical. The host-measured ones (figure9-12, table5-6) are
	// covered by the root package's TestParallelSuiteMatchesSequential.
	simulated := map[string]bool{
		"table1": true, "table2": true, "figure1": true, "figure2": true,
		"table3": true, "figure3": true, "table4": true, "figure4": true,
		"figure5": true, "figure6": true, "figure7": true, "figure8": true,
	}
	var subset []Experiment
	for _, e := range All() {
		if simulated[e.ID] {
			subset = append(subset, e)
		}
	}
	if len(subset) != len(simulated) {
		t.Fatalf("found %d simulated experiments in the registry, want %d", len(subset), len(simulated))
	}

	m := machine.New(arch.E870())
	seq := parallel.Map(1, subset, func(_ int, e Experiment) *Report {
		return e.Run(&Context{Machine: m, Quick: true})
	})
	par := parallel.Map(8, subset, func(_ int, e Experiment) *Report {
		return e.Run(&Context{Machine: m, Quick: true})
	})

	for i := range subset {
		s, p := seq[i], par[i]
		if s.ID != p.ID {
			t.Fatalf("report %d: id %q sequential vs %q parallel", i, s.ID, p.ID)
		}
		if !reflect.DeepEqual(s.Lines, p.Lines) {
			t.Errorf("%s: lines differ between sequential and parallel runs", s.ID)
		}
		if !reflect.DeepEqual(s.Checks, p.Checks) {
			t.Errorf("%s: checks differ between sequential and parallel runs", s.ID)
		}
		if !s.Passed() {
			for _, c := range s.Checks {
				if !c.Pass() {
					t.Errorf("%s: check failed: %s", s.ID, c.String())
				}
			}
		}
	}
}
