package power8

import (
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/memo"
	"repro/internal/parallel"
)

// CacheOptions configures a SuiteCache.
type CacheOptions struct {
	// MaxBytes bounds the in-memory report cache; 0 picks a 64 MiB
	// default, negative means unbounded.
	MaxBytes int64
	// Dir, when non-empty, enables the content-addressed on-disk store:
	// cached reports persist as fingerprint-named files and warm up the
	// next process (p8repro -cachedir).
	Dir string
}

// SuiteCache memoizes whole experiment Reports, keyed by machine
// fingerprint, experiment id, quick mode, fault plan and the kernel
// team width. It rests on the repo's determinism contract:
// every engine result is a pure function of its fingerprinted inputs,
// so a warm lookup and a recomputation are the same bits. One
// SuiteCache is safe for concurrent use and may be shared across
// RunSuite calls; that sharing is the point.
//
// What is never cached: FAILED reports (panics, watchdog trips,
// cancellations — failure is circumstance, not content), and any
// report from an instrumented run (RunOptions.Stats non-nil), because
// counters describe the execution that actually happened and a replay
// would attribute stale counters to a run that did no work.
//
// Report bytes round-trip through JSON. For the deterministic model
// experiments the cached report is bit-identical to a recomputation;
// for the host-measured kernel experiments (table5, figures 9-12) a
// warm hit returns the first run's measurements — by design: the cache
// key covers everything that determines the modelled result, and
// re-measuring host noise is exactly the cost a warm run skips.
type SuiteCache struct {
	reports *memo.Cache
}

// NewSuiteCache builds a cache. reg, when non-nil, receives counters
// under "memo/reports" (hits, misses, bytes, evictions, singleflight
// waits, disk timings).
func NewSuiteCache(opts CacheOptions, reg *StatsRegistry) (*SuiteCache, error) {
	maxBytes := opts.MaxBytes
	if maxBytes == 0 {
		maxBytes = 64 << 20
	}
	sc := &SuiteCache{
		reports: memo.New("reports", maxBytes, reg),
	}
	if opts.Dir != "" {
		if err := sc.reports.SetDir(opts.Dir); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// Reports exposes the underlying report cache (stats and tests).
func (sc *SuiteCache) Reports() *memo.Cache {
	if sc == nil {
		return nil
	}
	return sc.reports
}

// requestKey fingerprints everything that determines a report's
// content. Deliberately absent: the DES shard count (sharded and
// sequential runs are bit-identical by contract — PR 6 — so a result
// computed at any shard count serves every other), the worker count
// (experiments are independent) and the event budget (a budget either
// trips — FAILED, never cached — or changes nothing).
func requestKey(m *Machine, e Experiment, opts RunOptions) canon.Fingerprint {
	h := canon.NewHasher("power8/request/v2")
	h.Fp(canon.Machine(m))
	h.Str(e.ID)
	h.Bool(opts.Quick)
	opts.Faults.AppendCanon(h)
	// The kernel team width reaches host-measured kernel behaviour, so
	// runs under different widths must not satisfy one another.
	h.Int(parallel.Workers(0))
	return h.Sum()
}

// checkReportBytes validates a disk-read cache entry before it is
// trusted: it must be well-formed JSON (a truncated write or a
// corrupted file is not). Decoding proper happens at the use site.
func checkReportBytes(data []byte) error {
	if !json.Valid(data) {
		return fmt.Errorf("power8: cached report is not valid JSON (%d bytes)", len(data))
	}
	return nil
}

// ProbeReport reports whether a completed report for experiment e on
// machine m under opts is already resident in the cache (memory or
// disk). The probe is advisory: it promotes nothing and the answer can
// be stale by the time the caller acts on it — a concurrent run may
// insert or evict the entry at any moment. p8d uses it to annotate
// freshly admitted jobs with a warm/cold hint; the authoritative
// hit/miss attribution is RunOptions.OnReport's fromCache flag, which
// reports what the lookup actually did. Valid on a nil cache (always
// false).
func (sc *SuiteCache) ProbeReport(e Experiment, m *Machine, opts RunOptions) bool {
	if sc == nil {
		return false
	}
	return sc.reports.Peek(requestKey(m, e, opts))
}

// LoadReport fetches an already-computed report for experiment e on
// machine m under opts from the cache (memory or disk) without ever
// running the experiment. The boolean is false when the report is not
// resident — absent, evicted, or failing validation. p8d recovery uses
// LoadReport to re-serve reports for journal-replayed completed jobs;
// a false return there means the report aged out of the cache and the
// client must resubmit. Valid on a nil cache (always false).
func (sc *SuiteCache) LoadReport(e Experiment, m *Machine, opts RunOptions) (*Report, bool) {
	if sc == nil {
		return nil, false
	}
	data, ok := sc.reports.Get(requestKey(m, e, opts), checkReportBytes)
	if !ok {
		return nil, false
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, false
	}
	return &rep, true
}

// lookupOrRun serves one experiment through the report cache:
// memory, then disk, then compute-and-store via the cache's
// singleflight (concurrent identical requests — e.g. two warm services
// racing on the same suite — run the experiment once). A report that
// failed is returned but never stored, and never satisfies a waiting
// duplicate: the duplicate reruns under its own budget, so one
// cancelled run cannot poison the group. Any cache-layer error falls
// back to a direct run — the cache is an accelerator, not a
// dependency. The second return reports whether the cache supplied the
// report (memory, disk, or another caller's in-flight compute) rather
// than this caller running the experiment itself.
func (sc *SuiteCache) lookupOrRun(e Experiment, m *Machine, opts RunOptions, run func() *Report) (*Report, bool) {
	key := requestKey(m, e, opts)
	var computed *Report
	data, _, err := sc.reports.Do(key, checkReportBytes, func() ([]byte, bool, error) {
		rep := run()
		computed = rep
		buf, err := json.Marshal(rep)
		if err != nil {
			return nil, false, err
		}
		return buf, !rep.Failed(), nil
	})
	if computed != nil {
		// This caller ran the experiment itself (cold miss, marshal
		// failure, or a recompute after a non-storable leader); hand
		// back the live report rather than a decode of its own bytes.
		return computed, false
	}
	if err != nil {
		return run(), false
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return run(), false
	}
	return &rep, true
}
