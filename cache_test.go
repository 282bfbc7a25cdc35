package power8

// Tests for content-addressed result memoization: warm runs serve
// bit-identical reports without re-executing, FAILED / tripped /
// cancelled reports never enter the cache, instrumented runs bypass
// report reuse, and the request key honours its inclusion contract.

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// countingSuite builds a deterministic stub suite whose executions are
// observable — the unit-level stand-in for "did the cache re-run it?".
func countingSuite(runs *atomic.Int64) []Experiment {
	mk := func(id string) Experiment {
		return Experiment{ID: id, Title: "stub " + id, Run: func(ctx *experiments.Context) *experiments.Report {
			runs.Add(1)
			r := &experiments.Report{ID: id, Title: "stub " + id}
			r.Printf("quick=%v", ctx.Quick)
			r.CheckMin("always", 1, 0)
			return r
		}}
	}
	return []Experiment{mk("stub-a"), mk("stub-b"), mk("stub-c")}
}

func newTestCache(t *testing.T, opts CacheOptions) *SuiteCache {
	t.Helper()
	sc, err := NewSuiteCache(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestSuiteCacheWarmRun: the second identical RunSuite executes nothing
// and returns byte-identical reports.
func TestSuiteCacheWarmRun(t *testing.T) {
	var runs atomic.Int64
	suite := countingSuite(&runs)
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()

	cold := RunSuite(suite, m, RunOptions{Workers: 2, Cache: cache})
	if got := runs.Load(); got != 3 {
		t.Fatalf("cold run executed %d experiments, want 3", got)
	}
	warm := RunSuite(suite, m, RunOptions{Workers: 2, Cache: cache})
	if got := runs.Load(); got != 3 {
		t.Fatalf("warm run re-executed experiments (total %d runs, want 3)", got)
	}
	for i := range cold {
		a, _ := json.Marshal(cold[i])
		b, _ := json.Marshal(warm[i])
		if string(a) != string(b) {
			t.Errorf("%s: warm report differs from cold:\n%s\n%s", cold[i].ID, a, b)
		}
	}
}

// TestSuiteCacheKeySensitivity: changing a key input (Quick) recomputes;
// repeating it hits again.
func TestSuiteCacheKeySensitivity(t *testing.T) {
	var runs atomic.Int64
	suite := countingSuite(&runs)
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()

	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache})
	RunSuite(suite, m, RunOptions{Workers: 1, Quick: true, Cache: cache})
	if got := runs.Load(); got != 6 {
		t.Fatalf("quick-mode change did not recompute (%d runs, want 6)", got)
	}
	RunSuite(suite, m, RunOptions{Workers: 1, Quick: true, Cache: cache})
	if got := runs.Load(); got != 6 {
		t.Fatalf("repeated quick run recomputed (%d runs, want 6)", got)
	}
}

// TestRequestKeyShardCountExcluded is the PR-6 contract carried into the
// cache: sharded and sequential runs are bit-identical, so a report
// computed at any shard count must serve every other. Worker count and
// event budget are equally excluded.
func TestRequestKeyShardCountExcluded(t *testing.T) {
	m := NewE870()
	e := Experiment{ID: "x"}
	base := requestKey(m, e, RunOptions{})
	same := []RunOptions{
		{Shards: 1}, {Shards: 8}, {Workers: 3}, {EventBudget: 1 << 20},
	}
	for _, opts := range same {
		if requestKey(m, e, opts) != base {
			t.Errorf("options %+v changed the request key; they must not", opts)
		}
	}
	plan, err := fault.Parse("guard:0:1")
	if err != nil {
		t.Fatal(err)
	}
	diff := []RunOptions{{Quick: true}, {Faults: plan}}
	for _, opts := range diff {
		if requestKey(m, e, opts) == base {
			t.Errorf("options %+v did not change the request key; they must", opts)
		}
	}
	if requestKey(m, Experiment{ID: "y"}, RunOptions{}) == base {
		t.Error("experiment id is not in the request key")
	}
}

// TestSuiteCacheNeverStoresFailed: panics, watchdog trips and
// cancellations all produce FAILED reports, and none of them may be
// served to a later identical request.
func TestSuiteCacheNeverStoresFailed(t *testing.T) {
	m := NewE870()

	t.Run("panic", func(t *testing.T) {
		var runs atomic.Int64
		cache := newTestCache(t, CacheOptions{})
		e := Experiment{ID: "boom", Run: func(*experiments.Context) *experiments.Report {
			runs.Add(1)
			panic("injected")
		}}
		for i := 0; i < 2; i++ {
			rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache})[0]
			if !rep.Failed() {
				t.Fatal("sabotaged experiment did not fail")
			}
		}
		if got := runs.Load(); got != 2 {
			t.Errorf("failed report was served from cache (%d runs, want 2)", got)
		}
		if n := cache.Reports().Len(); n != 0 {
			t.Errorf("%d failed reports resident in cache, want 0", n)
		}
	})

	t.Run("watchdog", func(t *testing.T) {
		var runs atomic.Int64
		cache := newTestCache(t, CacheOptions{})
		e := Experiment{ID: "hang", Run: func(ctx *experiments.Context) *experiments.Report {
			runs.Add(1)
			for {
				ctx.Budget.Charge(1)
			}
		}}
		for i := 0; i < 2; i++ {
			rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, EventBudget: 100, Cache: cache})[0]
			if !rep.Failed() {
				t.Fatal("tripped experiment did not fail")
			}
		}
		if got := runs.Load(); got != 2 {
			t.Errorf("tripped report was served from cache (%d runs, want 2)", got)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		cache := newTestCache(t, CacheOptions{})
		cancelled := make(chan struct{})
		close(cancelled)
		e := Experiment{ID: "late", Run: func(ctx *experiments.Context) *experiments.Report {
			for {
				ctx.Budget.Charge(1)
			}
		}}
		rep := RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cancel: cancelled, Cache: cache})[0]
		if !rep.Failed() {
			t.Fatal("cancelled experiment did not fail")
		}
		// The cancelled generation stored nothing; an uncancelled rerun
		// against the same cache computes fresh and succeeds.
		var runs atomic.Int64
		e.Run = func(*experiments.Context) *experiments.Report {
			runs.Add(1)
			return &experiments.Report{ID: "late"}
		}
		rep = RunSuite([]Experiment{e}, m, RunOptions{Workers: 1, Cache: cache})[0]
		if rep.Failed() || runs.Load() != 1 {
			t.Errorf("rerun after cancellation: failed=%v runs=%d, want a fresh success", rep.Failed(), runs.Load())
		}
	})
}

// TestSuiteCacheBypassedUnderStats: instrumented runs must re-execute —
// counters describe the run that happened — while uninstrumented runs
// against the same cache still hit.
func TestSuiteCacheBypassedUnderStats(t *testing.T) {
	var runs atomic.Int64
	suite := countingSuite(&runs)
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()

	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache})
	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache, Stats: NewStatsRegistry("t")})
	if got := runs.Load(); got != 6 {
		t.Fatalf("instrumented run used the report cache (%d runs, want 6)", got)
	}
	RunSuite(suite, m, RunOptions{Workers: 1, Cache: cache})
	if got := runs.Load(); got != 6 {
		t.Fatalf("uninstrumented rerun missed the cache (%d runs, want 6)", got)
	}
}

// TestSuiteCacheDiskWarmProcess: a fresh SuiteCache over the same
// directory — a new process in miniature — serves the previous cache's
// reports without executing anything.
func TestSuiteCacheDiskWarmProcess(t *testing.T) {
	dir := t.TempDir()
	m := NewE870()
	var runs atomic.Int64
	suite := countingSuite(&runs)

	cold := newTestCache(t, CacheOptions{Dir: dir})
	first := RunSuite(suite, m, RunOptions{Workers: 1, Cache: cold})

	warm := newTestCache(t, CacheOptions{Dir: dir})
	second := RunSuite(suite, m, RunOptions{Workers: 1, Cache: warm})
	if got := runs.Load(); got != 3 {
		t.Fatalf("cross-cache warm run executed experiments (%d total runs, want 3)", got)
	}
	for i := range first {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Errorf("%s: disk-served report differs from computed", first[i].ID)
		}
	}
}

// TestFaultSuiteWarmIdentical runs the real degradation suite cold and
// warm through one cache and demands bit-identical reports — the
// end-to-end form of the warm-run contract, over experiments that
// derive degraded machines and run the sharded DES.
func TestFaultSuiteWarmIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick degradation suite")
	}
	cache := newTestCache(t, CacheOptions{})
	m := NewE870()
	opts := RunOptions{Quick: true, Workers: 2, Cache: cache}
	cold := RunSuite(FaultExperiments(), m, opts)
	warm := RunSuite(FaultExperiments(), m, opts)
	if len(cold) != len(warm) || len(cold) == 0 {
		t.Fatalf("report counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		if cold[i].Failed() {
			t.Fatalf("%s failed cold: %s", cold[i].ID, cold[i].Err)
		}
		if !reflect.DeepEqual(cold[i].Lines, warm[i].Lines) {
			t.Errorf("%s: warm lines differ from cold", cold[i].ID)
		}
		if !reflect.DeepEqual(cold[i].Checks, warm[i].Checks) {
			t.Errorf("%s: warm checks differ from cold", cold[i].ID)
		}
	}
}
