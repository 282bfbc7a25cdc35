package power8

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// FaultPlan is a deterministic RAS degradation plan; see internal/fault
// for the event taxonomy, the Parse grammar and the canned plans.
type FaultPlan = fault.Plan

// FaultExperiments returns the degradation suite: bandwidth-vs-fault
// sweeps and a healthy-vs-degraded comparison driven by a FaultPlan.
// It is separate from Experiments() because a degraded machine fails
// the paper suite's healthy-system checks by construction.
func FaultExperiments() []Experiment { return experiments.DegradationSuite() }

// RunOptions configures a hardened suite run. The zero value runs the
// suite on all CPUs with no instrumentation, no watchdog and no cache.
type RunOptions struct {
	// Quick shrinks working sets and scales for fast runs.
	Quick bool
	// Workers caps the run's goroutines; <= 0 means runtime.NumCPU().
	Workers int
	// Stats, when non-nil, instruments the run: every experiment gets a
	// child scope keyed by its id, and the harness's own counters
	// (panics recovered, watchdog trips, cancellations) land under a
	// "harness" scope.
	Stats *StatsRegistry
	// EventBudget bounds each experiment: every simulated event
	// (DES dispatch or walker access) charges one unit, and exhaustion
	// aborts the experiment with a failed report instead of hanging the
	// suite. 0 means unlimited.
	EventBudget uint64
	// Cancel, when non-nil, aborts the run when closed: running
	// experiments trip at their next budget poll, experiments that have
	// not started return cancelled reports immediately.
	Cancel <-chan struct{}
	// Faults selects the degradation plan for the fault-suite
	// experiments (nil falls back to their canned default). The paper
	// suite ignores it.
	Faults *FaultPlan
	// Shards is the DES shard count for the Figure-4-class simulations:
	// 0 (the default) auto-picks from GOMAXPROCS, 1 forces the
	// sequential merged engine, and larger divisors of the socket count
	// run that many parallel shard workers. Sharding is a wall-time
	// knob only — every legal value yields bit-identical reports.
	Shards int
	// Cache, when non-nil, memoizes the run: completed reports are
	// served from (and stored into) the content-addressed result cache.
	// FAILED reports are never stored. The cache is bypassed when Stats
	// is non-nil — counters describe the execution that actually
	// happened. Like Shards, the cache is a wall-time knob only: warm
	// and cold runs return the same bits.
	Cache *SuiteCache
	// OnReport, when non-nil, is called once per experiment as its
	// report becomes final (after the cache layer), from the worker
	// goroutine that produced it and in completion order — the returned
	// slice is still in suite order. index is the experiment's position
	// in the suite; fromCache reports whether the result was served from
	// the suite cache rather than executed. p8d uses it to stream
	// per-experiment progress and to attribute warm-vs-cold provenance;
	// the callback must be safe for concurrent calls when Workers > 1.
	OnReport func(index int, rep *Report, fromCache bool)
}

// RunSuite executes a set of experiments against one machine under the
// hardened harness contract: every experiment runs isolated (a panic
// becomes that experiment's failed report, the rest of the suite is
// unaffected) and optionally watched (event budget, cancellation).
// Reports come back in suite order regardless of completion order, one
// per experiment, always.
func RunSuite(suite []Experiment, m *Machine, opts RunOptions) []*Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// runtime.MemStats is process-global: allocation deltas are only
	// attributable on sequential runs.
	recordAllocs := workers == 1
	h := opts.Stats.Child("harness")
	broker := newCancelBroker()
	if opts.Cancel != nil {
		stop := broker.watch(opts.Cancel)
		defer stop()
	}
	return parallel.Map(workers, suite, func(i int, e Experiment) *Report {
		rep, fromCache := runHardened(e, m, opts, h, broker, recordAllocs)
		if opts.OnReport != nil {
			opts.OnReport(i, rep, fromCache)
		}
		return rep
	})
}

// runHardened serves one experiment through the result cache when one
// is configured (and the run is uninstrumented), falling back to an
// isolated run on a miss; without a cache it is the isolated run. The
// second return reports whether the cache supplied the report.
func runHardened(e Experiment, m *Machine, opts RunOptions, h *obs.Registry, broker *cancelBroker, recordAllocs bool) (*Report, bool) {
	run := func() *Report { return runIsolated(e, m, opts, h, broker, recordAllocs) }
	if opts.Cache == nil || opts.Stats != nil {
		return run(), false
	}
	return opts.Cache.lookupOrRun(e, m, opts, run)
}

// runIsolated executes one experiment under safeRun with a fresh
// watchdog budget and its own registry scope.
func runIsolated(e Experiment, m *Machine, opts RunOptions, h *obs.Registry, broker *cancelBroker, recordAllocs bool) *Report {
	var budget *engine.Budget
	if opts.EventBudget > 0 || opts.Cancel != nil {
		budget = engine.NewBudget(opts.EventBudget)
		if !broker.add(budget) {
			h.Counter("cancellations").Inc()
			return &Report{ID: e.ID, Title: e.Title, Err: engine.Trip{Cancelled: true}.Error()}
		}
	}
	scope := opts.Stats.Child(e.ID) // nil Stats -> nil scope: uninstrumented
	var m0 runtime.MemStats
	if opts.Stats != nil && recordAllocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	rep := safeRun(e, &experiments.Context{
		Machine: m,
		Quick:   opts.Quick,
		Obs:     scope,
		Budget:  budget,
		Faults:  opts.Faults,
		Shards:  opts.Shards,
	}, h)
	if opts.Stats != nil {
		hs := scope.Child("harness")
		hs.Distribution("wall_ns").Observe(time.Since(start).Nanoseconds())
		if recordAllocs {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			hs.Gauge("allocs").Set(int64(m1.Mallocs - m0.Mallocs))
		}
		s := scope.Snapshot()
		rep.Stats = &s
	}
	return rep
}

// safeRun executes one experiment, converting panics into
// failed reports so one broken experiment cannot take down the suite: a
// tripped watchdog (engine.Trip) becomes a deterministic one-line
// diagnostic, any other panic keeps its value and stack. This wrapper
// is the only place in the repository allowed to call recover — the
// p8lint isolation analyzer enforces that panics elsewhere stay fatal
// instead of being silently swallowed.
//
//p8:isolation
func safeRun(e Experiment, ctx *experiments.Context, h *obs.Registry) (rep *Report) {
	defer func() {
		cause := recover()
		if cause == nil {
			return
		}
		rep = &Report{ID: e.ID, Title: e.Title}
		switch t := cause.(type) {
		case engine.Trip:
			if t.Cancelled {
				h.Counter("cancellations").Inc()
			} else {
				h.Counter("watchdog_trips").Inc()
			}
			rep.Err = t.Error()
		default:
			h.Counter("panics_recovered").Inc()
			rep.Err = fmt.Sprintf("panic: %v\n%s", cause, debug.Stack())
		}
	}()
	return e.Run(ctx)
}

// cancelBroker fans one cancellation signal out to every live budget
// and turns not-yet-started experiments away.
type cancelBroker struct {
	mu        sync.Mutex
	cancelled bool
	budgets   []*engine.Budget
}

func newCancelBroker() *cancelBroker { return &cancelBroker{} }

// add registers a budget for cancellation fan-out; it reports false —
// and registers nothing — when the run is already cancelled.
func (b *cancelBroker) add(bud *engine.Budget) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cancelled {
		return false
	}
	b.budgets = append(b.budgets, bud)
	return true
}

// cancelAll cancels every registered budget and every future add.
func (b *cancelBroker) cancelAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cancelled = true
	for _, bud := range b.budgets {
		bud.Cancel()
	}
	b.budgets = nil
}

// watch cancels the broker when cancel closes; the returned stop
// function ends the watch (idempotent with the cancellation itself).
func (b *cancelBroker) watch(cancel <-chan struct{}) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-cancel:
			b.cancelAll()
		case <-done:
		}
	}()
	return func() { close(done) }
}
