// Package power8 reproduces "An Early Performance Study of Large-Scale
// POWER8 SMP Systems" (IPDPS 2016) as a library: a calibrated machine
// model of the IBM Power System E870 — caches, TLB, hardware prefetcher,
// SMT cores, X/A-bus SMP fabric and Centaur memory buffers — together
// with the paper's microbenchmarks, roofline analysis and three
// data-intensive applications (all-pairs Jaccard similarity, SpMV on HPC
// matrices and scale-free graphs, and Hartree-Fock), and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	m := power8.NewE870()
//	fmt.Println(m.Mem.SystemStream(2.0 / 3)) // Table III's 2:1 row
//	rep, err := power8.Run("table3", m, power8.RunOptions{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, line := range rep.Lines {
//		fmt.Println(line)
//	}
//
// The deeper layers are importable directly: internal packages expose the
// substrates (internal/cache, internal/fabric, internal/memsys,
// internal/prefetch, ...) while this package re-exports the surfaces a
// downstream user needs: machine construction, the experiment registry,
// and the application kernels. RunSuite is the one way to execute
// experiments: Run looks one up by id and runs it through RunSuite.
package power8

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Machine is the assembled POWER8 SMP model; see internal/machine.
type Machine = machine.Machine

// SystemSpec is a static machine description; see internal/arch.
type SystemSpec = arch.SystemSpec

// Report is an experiment's rendered output and paper-vs-measured checks.
type Report = experiments.Report

// Check is one paper-vs-measured comparison inside a Report.
type Check = experiments.Check

// Experiment is one table/figure reproduction from the registry.
type Experiment = experiments.Experiment

// StatsRegistry is the hierarchical metrics registry behind the -stats
// machinery; see internal/obs for the full API (counters, gauges,
// distributions, scoped children, exporters). All methods are no-ops on
// a nil *StatsRegistry, so instrumentation points cost one branch when
// observation is off.
type StatsRegistry = obs.Registry

// StatsSnapshot is a point-in-time copy of a StatsRegistry scope,
// renderable as JSON or a Markdown table; see internal/obs.
type StatsSnapshot = obs.Snapshot

// NewStatsRegistry constructs a named root registry for an observed run.
func NewStatsRegistry(name string) *StatsRegistry { return obs.NewRegistry(name) }

// E870Spec returns the specification of the paper's evaluation system:
// eight 8-core POWER8 chips at 4.35 GHz in two groups (Table II).
func E870Spec() *SystemSpec { return arch.E870() }

// MaxSMPSpec returns the largest POWER8 SMP of Section II-B: 16 sockets,
// 192 cores, 16 TB (6,144 GFLOP/s, 3,686 GB/s).
func MaxSMPSpec() *SystemSpec { return arch.MaxPOWER8SMP() }

// NewE870 builds the calibrated E870 machine model.
func NewE870() *Machine { return machine.New(arch.E870()) }

// NewMachine builds a machine model for any POWER8 system spec using the
// E870-fitted calibration profiles.
func NewMachine(spec *SystemSpec) *Machine { return machine.New(spec) }

// Experiments returns the full registry in the paper's order: tables
// I-VI and figures 1-12.
func Experiments() []Experiment { return experiments.All() }

// Run executes one experiment by id ("table3", "figure7", ...) against
// the machine. It is RunSuite over a one-experiment suite on one
// worker, so the experiment runs under the same hardening as a suite: a
// panic comes back as a failed report instead of crashing the caller,
// and opts (quick mode, instrumentation, budget, cancellation, cache)
// apply as they would to every experiment of a suite. opts.Workers is
// ignored.
func Run(id string, m *Machine, opts RunOptions) (*Report, error) {
	exp, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("power8: unknown experiment %q", id)
	}
	opts.Workers = 1
	return RunSuite([]Experiment{exp}, m, opts)[0], nil
}
