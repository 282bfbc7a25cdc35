package main

import (
	"strings"
	"time"

	power8 "repro"
	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/hf"
	"repro/internal/jaccard"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/spmv"
)

// The probes below run only in traced runs, after the measured phase.
// Each one calls a layer's public entry points directly, inside spans,
// with inputs shaped like the workload's own, so a per-layer number
// measures that layer alone.

// walkerIDs are the paper experiments driven by the trace walker.
var walkerIDs = []string{"figure2", "figure6", "figure7", "figure8"}

// probeWalker reruns the suite's walker experiments uncached with an
// instrumented registry (RunOptions.Stats bypasses the report cache, so
// it is never set on the cached cold or warm phases) and reads the
// walker's access count.
func (b *bench) probeWalker(m *power8.Machine, suite []power8.Experiment) {
	ws := pick(suite, walkerIDs)
	if len(ws) == 0 {
		return
	}
	reg := obs.NewRegistry("walker")
	sp := b.tr.begin("machine.walker", 0)
	t0 := time.Now()
	reps := power8.RunSuite(ws, m, power8.RunOptions{Quick: true, Workers: 1, Stats: reg})
	wall := time.Since(t0)
	b.tr.end(sp)
	for _, rep := range reps {
		b.gates.reportGate("walker probe", rep)
	}
	counts := reg.Snapshot().CounterMap()
	accesses := sumSuffix(counts, "/walker/accesses")
	b.layer["machine.walker.accesses"] = float64(accesses)
	if accesses > 0 {
		b.layer["machine.walker.ns_per_access"] = float64(wall.Nanoseconds()) / float64(accesses)
	}
	b.layer["engine.des.events"] += float64(sumSuffix(counts, "/des/events"))
}

// sumSuffix adds every counter whose path ends in suffix.
func sumSuffix(counts map[string]uint64, suffix string) uint64 {
	var n uint64
	for k, v := range counts {
		if strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}

// probeKernels times the host kernels the quick suite's figure 10-12 and
// table 6 run, on seeded inputs at a reduced scale, and reads the shared
// worker teams' dispatch counters.
func (b *bench) probeKernels() {
	reg := obs.NewRegistry("kernels")
	parallel.InstrumentShared(reg)
	scale := b.size.probeScale
	span := func(name string, fn func()) {
		sp := b.tr.begin(name, 0)
		b.layer[name+".s"] = timeIt(fn)
		b.tr.end(sp)
	}
	var g, small *graph.CSR
	span("graph.rmat", func() { g = graph.RMAT(graph.DefaultRMAT(scale, b.seed)) })
	cfg := graph.DefaultRMAT(scale-4, b.seed)
	cfg.EdgeFactor, cfg.Undirected = 8, true
	small = graph.RMAT(cfg)
	span("jaccard.allpairs", func() { jaccard.AllPairs(small, 0, nil) })
	x := make([]float64, g.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	y := make([]float64, g.Rows)
	span("spmv.csr", func() {
		for i := 0; i < 20; i++ {
			spmv.CSR(y, g, x, 0)
		}
	})
	mol := hf.TableV()[3].Scaled(40).Build()
	span("hf.scf", func() {
		res, err := hf.Run(mol, hf.Config{Mode: hf.HFMem})
		b.gates.pass(err == nil && res.Converged, "hf probe: SCF did not converge (err %v)", err)
	})
	snap := reg.Snapshot()
	b.layer["parallel.dispatches"] = float64(sumSuffix(snap.CounterMap(), "/dispatches"))
	var sum, count float64
	walkDists(snap, func(path string, d obs.DistSummary) {
		if d.Name == "imbalance_permille" {
			sum += float64(d.Sum)
			count += float64(d.Count)
		}
	})
	if count > 0 {
		b.layer["parallel.imbalance_permille"] = sum / count
	}
}

// walkDists visits every distribution in a snapshot tree.
func walkDists(s obs.Snapshot, fn func(path string, d obs.DistSummary)) {
	var walk func(prefix string, s obs.Snapshot)
	walk = func(prefix string, s obs.Snapshot) {
		p := prefix + "/" + s.Name
		for _, d := range s.Distributions {
			fn(p, d)
		}
		for _, c := range s.Children {
			walk(p, c)
		}
	}
	walk("", s)
}

// distMean returns the exact mean of the named distribution found
// anywhere under scope path (e.g. "memo/reports"), 0 when absent.
func distMean(s obs.Snapshot, path, name string) float64 {
	var sum, count float64
	walkDists(s, func(p string, d obs.DistSummary) {
		if d.Name == name && strings.HasSuffix(p, "/"+path) {
			sum += float64(d.Sum)
			count += float64(d.Count)
		}
	})
	if count == 0 {
		return 0
	}
	return sum / count
}

// probeCanon times canon.Machine, the fingerprint every cache lookup
// starts with.
func (b *bench) probeCanon(m *power8.Machine) {
	var us []float64
	for i := 0; i < 200; i++ {
		sp := b.tr.begin("canon.machine", 0)
		us = append(us, 1e6*timeIt(func() { canon.Machine(m) }))
		b.tr.end(sp)
	}
	b.layer["canon.machine_fp_us"] = median(us)
}

// probeSolver times the analytic bandwidth solvers (memory system,
// fabric, random access) that the experiments call between simulations.
func (b *bench) probeSolver(m *power8.Machine) {
	var us []float64
	for i := 0; i < 200; i++ {
		sp := b.tr.begin("machine.solver", 0)
		us = append(us, 1e6*timeIt(func() {
			m.Mem.SystemStream(2.0 / 3)
			m.Net.AllToAll()
			m.RandomAccessBandwidth(8, 4)
		})/3)
		b.tr.end(sp)
	}
	b.layer["machine.solver.us_per_call"] = median(us)
}

// desCase is one sharded-DES call the DES probe makes.
type desCase struct {
	label string
	m     *power8.Machine
}

// probeDES repeats the deg-plan DES calls (healthy and degraded, SMT8 x
// 4 lists) at shards=auto with an instrumented registry and at shards=1
// uninstrumented. The two must return the same GB/s; the wall-time ratio
// is engine.des.shard_speedup.
func (b *bench) probeDES(cases []desCase, horizonNs float64) {
	reg := obs.NewRegistry("des")
	var auto, one time.Duration
	for _, c := range cases {
		sp := b.tr.begin("engine.des", 0)
		t0 := time.Now()
		gbAuto := c.m.SimulateRandomAccessSharded(8, 4, horizonNs, 0, reg, nil).GBps()
		auto += time.Since(t0)
		b.tr.end(sp)
		sp = b.tr.begin("engine.des.shards1", 0)
		t0 = time.Now()
		gbOne := c.m.SimulateRandomAccessSharded(8, 4, horizonNs, 1, nil, nil).GBps()
		one += time.Since(t0)
		b.tr.end(sp)
		b.gates.pass(gbAuto == gbOne, "%s: DES at shards=auto gives %v GB/s, at shards=1 %v GB/s", c.label, gbAuto, gbOne)
	}
	counts := reg.Snapshot().CounterMap()
	events := sumSuffix(counts, "/des/events")
	rounds := sumSuffix(counts, "/des/rounds")
	b.layer["engine.des.events"] = float64(events)
	b.layer["engine.des.rounds"] = float64(rounds)
	b.layer["engine.des.mailbox_msgs"] = float64(sumSuffix(counts, "/des/mailbox_msgs"))
	if events > 0 {
		b.layer["engine.des.ns_per_event"] = float64(auto.Nanoseconds()) / float64(events)
	}
	if rounds > 0 {
		b.layer["engine.des.us_per_round"] = float64(auto.Nanoseconds()) / 1e3 / float64(rounds)
	}
	if auto > 0 {
		b.layer["engine.des.shard_speedup"] = one.Seconds() / auto.Seconds()
	}
}

// probeDerive times fault-plan derivation against the plans' own
// machines (direct Plan.DeriveWithCalibration, no memoization).
func (b *bench) probeDerive(plans []planCase) {
	var us []float64
	for _, p := range plans {
		for i := 0; i < 10; i++ {
			sp := b.tr.begin("fault.derive", 0)
			us = append(us, 1e6*timeIt(func() { p.derive() }))
			b.tr.end(sp)
		}
	}
	b.layer["fault.derive_us"] = median(us)
}

// planCase is a fault plan with the healthy machine it degrades.
type planCase struct {
	plan *power8.FaultPlan
	m    *power8.Machine
}

// derive builds the degraded machine the way the deg-* experiments do:
// the plan applied to the machine's spec and calibration profiles.
func (p planCase) derive() *power8.Machine {
	return p.plan.DeriveWithCalibration(p.m.Spec, p.m.Net.Calibration(), p.m.Mem.Calibration())
}

// memoLayer reads the report cache's counters from the run's registry.
// A disk hit inside DoBytes counts as a memory miss plus a disk hit, so
// requests that computed are misses minus disk hits.
func (b *bench) memoLayer(reg *obs.Registry) {
	snap := reg.Snapshot()
	counts := snap.CounterMap()
	get := func(name string) float64 { return float64(sumSuffix(counts, "/memo/reports/"+name)) }
	hits := get("hits") + get("disk_hits")
	misses := max(0, get("misses")-get("disk_hits"))
	b.layer["memo.hits"] = hits
	b.layer["memo.misses"] = misses
	if hits+misses > 0 {
		b.layer["memo.hit_ratio"] = hits / (hits + misses)
	}
	b.layer["memo.disk_read_us"] = distMean(snap, "memo/reports", "disk_read_ns") / 1e3
	b.layer["memo.disk_write_us"] = distMean(snap, "memo/reports", "disk_write_ns") / 1e3
}
