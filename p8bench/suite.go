package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	power8 "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// batchJob is one suite request of a batch workload: a set of
// experiments on one machine under one set of run options. A cold pass
// and a warm request each serve every job of the batch, so all passes do
// the same work, and so do all warm requests.
type batchJob struct {
	label string
	m     *power8.Machine
	suite []power8.Experiment
	opts  power8.RunOptions
}

// suiteQuick runs the quick paper suite on the E870 cold, one experiment
// at a time, into a fresh disk-backed SuiteCache per pass, then serves it
// warm from new SuiteCaches over the last pass's directory.
func (b *bench) suiteQuick() error {
	var jobs []batchJob
	err := b.setupMedian(b.size.setupReps, func() (float64, error) {
		t0 := time.Now()
		m := power8.NewE870()
		suite := pick(power8.Experiments(), b.size.paperIDs)
		jobs = []batchJob{{label: "paper-quick", m: m, suite: suite, opts: power8.RunOptions{Quick: true}}}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	if err := b.runBatch(jobs); err != nil {
		return err
	}
	if b.traced {
		b.probeWalker(jobs[0].m, jobs[0].suite)
		b.probeKernels()
		b.probeCanon(jobs[0].m)
		b.probeSolver(jobs[0].m)
	}
	return nil
}

// desFaults runs the full-size degradation suite with one DES shard (see
// runBatch) under a fixed list of canned fault plans, each on the E870 (8 sockets) and on the largest POWER8
// SMP (16 sockets), in a seeded order.
func (b *bench) desFaults() error {
	var jobs []batchJob
	err := b.setupMedian(b.size.setupReps, func() (float64, error) {
		t0 := time.Now()
		e870, maxSMP := power8.NewE870(), power8.NewMachine(power8.MaxSMPSpec())
		jobs = nil
		for _, name := range b.size.plans {
			plan, err := fault.Canned(name)
			if err != nil {
				return 0, err
			}
			for _, m := range []*power8.Machine{e870, maxSMP} {
				if err := plan.Validate(m.Spec); err != nil {
					return 0, err
				}
				jobs = append(jobs, batchJob{
					label: fmt.Sprintf("%s/%s", m.Spec.Name, plan.Name),
					m:     m,
					suite: power8.FaultExperiments(),
					opts:  power8.RunOptions{Faults: plan, Shards: 1},
				})
			}
		}
		rng.New(b.seed).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	if err := b.runBatch(jobs); err != nil {
		return err
	}
	if b.traced {
		var cases []desCase
		var plans []planCase
		probed := map[*power8.Machine]bool{}
		for _, job := range jobs {
			p := planCase{plan: job.opts.Faults, m: job.m}
			plans = append(plans, p)
			if !probed[job.m] {
				probed[job.m] = true
				cases = append(cases, desCase{label: job.m.Spec.Name + "/healthy", m: job.m}, desCase{label: job.label, m: p.derive()})
			}
		}
		b.probeDES(cases, degPlanHorizonNs)
		b.probeDerive(plans)
		b.probeSolver(jobs[0].m)
	}
	return nil
}

// pick filters a suite to the given experiment ids, in suite order.
func pick(suite []power8.Experiment, ids []string) []power8.Experiment {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []power8.Experiment
	for _, e := range suite {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// freshDir makes a new empty directory under the run's scratch space.
func (b *bench) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(b.scratch, prefix+"-")
}

// runBatch is the measured phase of a batch workload. Cold: size.coldPasses
// passes, each running every job's experiments one at a time into a
// fresh disk-backed SuiteCache; cold_cpu_s is the sum over experiments of
// each one's median cold CPU time. Warm: size.warmReps requests for every
// job's reports, each served by a new SuiteCache over the last cold
// pass's directory, the path a second `p8repro -cachedir` process takes
// (warm_ms is their median). Both phases run the host kernels with one
// worker (as `-kernelworkers 1` does; the jobs run the DES with one
// shard): the CPU time of two busy threads on a 2-vCPU host depends on
// how much they overlap, and so on whatever else the host runs. The Go
// runtime keeps every CPU for its own background work. The probes after
// it use every CPU again.
func (b *bench) runBatch(jobs []batchJob) error {
	parallel.SetDefaultWorkers(1)
	defer parallel.SetDefaultWorkers(0)
	b.workers = 1
	reg := b.reg
	root := b.tr.begin("batch.cold", 0)
	cacheDir, cold, coldWall, err := b.coldPhase(jobs, reg, root)
	b.tr.end(root)
	if err != nil {
		return err
	}

	// warm serves every job from a new SuiteCache over the cold
	// directory and checks the reports against the cold ones.
	warm := func(traced bool) (float64, error) {
		wreg, tr := reg, b.tr
		if !traced {
			wreg, tr = nil, nil
		}
		runtime.GC()
		hits := make([]int, len(jobs))
		var reps [][]*power8.Report
		sp := tr.begin("batch.warm", 0)
		t0 := time.Now()
		sc, err := power8.NewSuiteCache(power8.CacheOptions{Dir: cacheDir}, wreg)
		if err == nil {
			for ji, job := range jobs {
				opts := job.opts
				opts.Workers, opts.Cache = 1, sc
				opts.OnReport = func(_ int, _ *power8.Report, hit bool) {
					if hit {
						hits[ji]++
					}
				}
				reps = append(reps, power8.RunSuite(job.suite, job.m, opts))
			}
		}
		dt := time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		for ji, job := range jobs {
			b.gates.pass(hits[ji] == len(job.suite), "%s: warm request served %d of %d reports from the cache", job.label, hits[ji], len(job.suite))
			for i, rep := range reps[ji] {
				data, err := json.Marshal(rep)
				if err != nil {
					return 0, err
				}
				b.gates.pass(string(data) == string(cold[ji][i]), "%s: warm %s differs from the cold report", job.label, rep.ID)
			}
		}
		return dt, nil
	}
	// On traced runs every warm request is made twice, untraced and
	// traced; the untraced half gives warm_ms either way.
	// Every warm request starts from a collected heap, as a fresh
	// process's would, so no request pays for another's garbage.
	var plain, withTrace []float64
	for k := 0; k < b.size.warmReps; k++ {
		dt, err := warm(false)
		if err != nil {
			return err
		}
		plain = append(plain, dt)
		if b.traced {
			dt, err := warm(true)
			if err != nil {
				return err
			}
			withTrace = append(withTrace, dt)
		}
	}
	b.e2e["warm_ms"] = 1e3 * median(plain)
	fmt.Fprintf(b.log, "p8bench: %s cold %.3fs CPU, %.3fs wall (sums of medians over %d passes of %d suites); warm p50 %.4fms p90 %.4fms over %d requests\n",
		b.workload, b.e2e["cold_cpu_s"], coldWall, b.size.coldPasses, len(jobs), b.e2e["warm_ms"], 1e3*quantile(plain, 0.9), len(plain))
	if b.traced {
		b.layer["obs.trace_overhead_frac"] = median(withTrace)/median(plain) - 1
		b.memoLayer(reg)
		var cases []loadCase
		for _, job := range jobs {
			for _, e := range job.suite {
				cases = append(cases, loadCase{label: job.label, e: e, m: job.m, opts: job.opts})
			}
		}
		b.probeLoad(cacheDir, cases)
	}
	return nil
}

// loadCase is one report the memo load probe fetches.
type loadCase struct {
	label string
	e     power8.Experiment
	m     *power8.Machine
	opts  power8.RunOptions
}

// coldPhase makes size.coldPasses cold passes. Each pass starts from a
// collected heap and runs every job's experiments one at a time into a
// new disk-backed SuiteCache over a fresh directory, so every experiment
// computes and stores its report. Each experiment is timed in CPU time
// and wall time. An experiment's passes are spread over the whole cold
// phase, so a burst of outside load lands on few of them, and the median
// drops it. cold_cpu_s, and per layer experiments.<id>.cpu_s, are sums of
// per-experiment CPU medians; the wall sum is returned for the log. The
// first pass feeds the digest; every later pass's model-driven reports
// must be byte-identical to the first's. It also returns the last pass's
// directory and its reports' JSON, indexed by job and then by experiment.
func (b *bench) coldPhase(jobs []batchJob, reg *obs.Registry, root int) (string, [][][]byte, float64, error) {
	var dir string
	var cold, first [][][]byte
	type times struct{ cpu, wall []float64 } // one entry per pass
	unit := make([][]times, len(jobs))       // by job, then experiment
	for ji, job := range jobs {
		unit[ji] = make([]times, len(job.suite))
	}
	for pass := 0; pass < b.size.coldPasses; pass++ {
		var err error
		if dir, err = b.freshDir("cache"); err != nil {
			return "", nil, 0, err
		}
		sc, err := power8.NewSuiteCache(power8.CacheOptions{Dir: dir}, reg)
		if err != nil {
			return "", nil, 0, err
		}
		runtime.GC()
		cold = make([][][]byte, len(jobs))
		for ji, job := range jobs {
			opts := job.opts
			opts.Workers, opts.Cache = 1, sc
			for ei, e := range job.suite {
				var fromCache bool
				opts.OnReport = func(_ int, _ *power8.Report, hit bool) { fromCache = hit }
				sp := b.tr.begin("experiments."+e.ID, root)
				t0, c0 := time.Now(), cpuTime()
				rep := power8.RunSuite([]power8.Experiment{e}, job.m, opts)[0]
				u := &unit[ji][ei]
				u.cpu = append(u.cpu, (cpuTime() - c0).Seconds())
				u.wall = append(u.wall, time.Since(t0).Seconds())
				b.tr.end(sp)
				b.gates.reportGate(job.label, rep)
				b.gates.pass(!fromCache, "%s: cold %s was served from the cache", job.label, e.ID)
				data, err := json.Marshal(rep)
				if err != nil {
					return "", nil, 0, err
				}
				if pass == 0 {
					b.digest.add(rep)
				} else if rep != nil && !hostMeasured[rep.ID] {
					b.gates.pass(string(data) == string(first[ji][ei]), "%s: cold pass %d %s differs from the first pass", job.label, pass+1, e.ID)
				}
				cold[ji] = append(cold[ji], data)
			}
		}
		if pass == 0 {
			first = cold
		}
	}
	var cpu, wall float64
	for ji, job := range jobs {
		for ei, e := range job.suite {
			c := median(unit[ji][ei].cpu)
			cpu += c
			wall += median(unit[ji][ei].wall)
			if b.traced {
				b.layer["experiments."+e.ID+".cpu_s"] += c
			}
		}
	}
	b.e2e["cold_cpu_s"] = cpu
	return dir, cold, wall, nil
}

// probeLoad times SuiteCache.LoadReport for each case, each from a new
// cache over dir, so every load reads the disk tier (memo.load_us is the
// median).
func (b *bench) probeLoad(dir string, cases []loadCase) {
	var us []float64
	for _, c := range cases {
		sc, err := power8.NewSuiteCache(power8.CacheOptions{Dir: dir}, nil)
		if !b.gates.pass(err == nil, "memo load probe: %v", err) {
			return
		}
		sp := b.tr.begin("memo.load", 0)
		t0 := time.Now()
		_, ok := sc.LoadReport(c.e, c.m, c.opts)
		us = append(us, 1e6*time.Since(t0).Seconds())
		b.tr.end(sp)
		b.gates.pass(ok, "%s: LoadReport(%s) found no cached report", c.label, c.e.ID)
	}
	b.layer["memo.load_us"] = median(us)
}
