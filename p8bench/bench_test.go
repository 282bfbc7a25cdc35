package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so the smoke test runs each one, with
// all of its gates and probes, in seconds.
func tinySizes(int) sizes {
	return sizes{
		setupReps:    3,
		bootReps:     2,
		coldPasses:   2,
		warmReps:     5,
		paperIDs:     []string{"table1", "figure1", "figure4", "figure6", "table5"},
		plans:        []string{"worst-day"},
		fillJobs:     40,
		fillDistinct: 2,
		loopJobs:     8,
		probeScale:   10,
		appendProbe:  8,
	}
}

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one workload at tiny size and returns the exit status,
// the parsed result and the identity line.
func runTiny(t *testing.T, workload string, trace string) (int, result, map[string]any, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace}, t.TempDir(), &stdout, &stderr, tinySizes)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	var ident map[string]any
	for _, l := range lines {
		var doc map[string]map[string]any
		if json.Unmarshal([]byte(l), &doc) == nil && doc["identity"] != nil {
			ident = doc["identity"]
		}
	}
	return code, res, ident, stderr.String()
}

// TestWorkloadsEmitDeclaredMetrics runs every workload declared in
// BENCHMARK.json untraced and traced: each run must pass its gates and
// emit exactly the declared metrics with their units; untraced metrics
// must be positive.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				code, res, ident, stderr := runTiny(t, w.Name, trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, res, stderr)
				}
				if ident == nil || ident["digest"] == nil {
					t.Errorf("no identity line")
				}
				declared := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						declared[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						declared[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for name, unit := range declared {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case got.Unit != unit:
						t.Errorf("metric %s unit %q, declared %q", name, got.Unit, unit)
					case trace == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			})
		}
	}
}

// TestTracedIdentityRepeats checks that the simulated-output digest and
// the walker and DES counts repeat exactly across runs of one seed.
func TestTracedIdentityRepeats(t *testing.T) {
	for _, w := range []string{"suite-quick", "des-faults", "p8d-closed"} {
		_, _, first, _ := runTiny(t, w, "1")
		_, _, second, _ := runTiny(t, w, "1")
		for _, k := range []string{"digest", "reports", "walker_accesses", "des_events"} {
			if first[k] != second[k] {
				t.Errorf("%s: identity %s differs between runs: %v vs %v", w, k, first[k], second[k])
			}
		}
	}
}

// TestFailedGateExitsNonZero checks that one failed gate makes the run
// incorrect and its exit status 1, and that bad flags exit 2 without a
// result.
func TestFailedGateExitsNonZero(t *testing.T) {
	workloads["gate-fails"] = func(b *bench) error {
		b.gates.pass(false, "deliberately failed gate")
		return nil
	}
	defer delete(workloads, "gate-fails")
	code, res, _, _ := runTiny(t, "gate-fails", "0")
	if code != 1 || res.Correct || res.Failed != 1 {
		t.Errorf("failed gate: exit %d, result %+v; want exit 1, correct false, failed 1", code, res)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, t.TempDir(), &stdout, &stderr, tinySizes); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want exit 2 and no output", code, stdout.String())
	}
}

// TestSchemaMatchesBenchmarkFile checks the Go metric lists against
// BENCHMARK.json, so neither can drift from the other.
func TestSchemaMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(kind string, defs []metricDef, declared map[string]string) {
		if len(defs) != len(declared) {
			t.Errorf("%s: %d metrics in p8bench, %d in BENCHMARK.json", kind, len(defs), len(declared))
		}
		for _, d := range defs {
			if u, ok := declared[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s (%s) declared as %q in BENCHMARK.json", kind, d.name, d.unit, u)
			}
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no function to run it", w.Name)
		}
	}
}
