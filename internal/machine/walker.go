package machine

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/units"
)

// staleInflightNs is how long a completed prefetch stays useful: past
// this, the walker assumes intervening traffic evicted the prefetched
// line before its demand access arrived (accidental prefetch overruns
// across randomly ordered blocks land here, see Figure 8).
const staleInflightNs = 2000

// WalkerConfig configures a latency Walker: one hardware thread issuing
// dependent loads through its chip's cache hierarchy.
type WalkerConfig struct {
	// Chip is the requesting chip.
	Chip arch.ChipID
	// Page selects the virtual page size (Figure 2 compares 64 KiB and
	// 16 MiB). Zero defaults to 64 KiB pages.
	Page arch.PageSize
	// Prefetch configures the hardware prefetch engine. A zero value
	// gets the hardware default (DSCR 7, stride-N off).
	Prefetch prefetch.Config
	// DisablePrefetch turns the engine off entirely, as the paper does
	// for the lmbench latency curves.
	DisablePrefetch bool
	// Home maps a byte address to the chip whose memory holds it.
	// Nil homes everything on the requesting chip.
	Home func(addr uint64) arch.ChipID
	// DisableVictimL3 turns off the NUCA lateral-castout behaviour
	// (ablation studies).
	DisableVictimL3 bool
	// Obs, when non-nil, receives the walker's counters (accesses,
	// per-level hits and misses, translation misses, prefetch
	// issue/confirm/drop activity) under a "walker" child scope. The
	// walker accumulates into plain fields on the access path and
	// flushes deltas at Run boundaries (or on PublishStats), so a nil
	// registry — the default — leaves the hot path untouched.
	Obs *obs.Registry
	// Budget, when non-nil, is charged one unit per access and trips
	// the harness watchdog (panics with engine.Trip) when exhausted or
	// cancelled. Nil — the default — costs one branch per access.
	Budget *engine.Budget
}

// Walker simulates one hardware thread's dependent-load accesses with
// full cache, TLB and prefetch behaviour and a nanosecond clock.
type Walker struct {
	m    *Machine
	cfg  WalkerConfig
	hier *cache.Hierarchy
	xl   *tlb.TLB
	pf   *prefetch.Engine

	nowNs    float64
	accesses uint64
	totalNs  float64

	// Per-source accounting: how many accesses each cache level (or a
	// completed prefetch) satisfied. Indexed by cache.Level — an array,
	// not a map, because this is incremented on every access.
	levelCounts  [cache.NumLevels]uint64
	prefetchHits uint64
	eratMisses   uint64
	tlbMisses    uint64
	// staleDrops counts prefetches that completed but went stale before
	// their demand access arrived (the Figure 8 overrun effect); hints
	// counts DCBT stream declarations. Both feed the obs registry.
	staleDrops uint64
	hints      uint64
	// published remembers the counter values already flushed to cfg.Obs
	// so PublishStats adds exact deltas however often it runs.
	published walkerPublished

	// inflight maps line address -> prefetch completion time. Sized to
	// the prefetch engine's stream capacity x run-ahead depth.
	inflight *inflightTable
	// lastDone serializes prefetch completions at the per-line stream
	// service interval, modelling the finite per-stream fill bandwidth.
	lastDone float64

	// Demand-stride tracking for the Centaur row-pipelining effect.
	lastLine  int64
	lastDelta int64
	haveDelta bool

	// pfbuf is the scratch buffer OnDemandInto appends prefetch addresses
	// to, reused across accesses.
	pfbuf []uint64

	// cycleNs is the chip's clock period, read once: ChipSpec's methods
	// take the large spec by value, which copies it on every call.
	cycleNs float64
}

// NewWalker builds a walker against this machine.
func (m *Machine) NewWalker(cfg WalkerConfig) *Walker {
	if cfg.Page == 0 {
		cfg.Page = arch.Page64K
	}
	if cfg.Prefetch.DSCR == 0 {
		cfg.Prefetch = prefetch.DefaultConfig()
	}
	w := &Walker{
		m:    m,
		cfg:  cfg,
		hier: cache.NewHierarchy(m.Spec.Chip, m.Spec.Memory.Centaur, m.Spec.Memory.CentaursPerChip),
		xl:   tlb.New(m.Spec.Xlate, cfg.Page),
		pf:   prefetch.New(cfg.Prefetch),

		cycleNs: m.Spec.Chip.CycleNs(),
	}
	w.hier.DisableVictim = cfg.DisableVictimL3
	pc := w.pf.Config()
	w.inflight = newInflightTable(pc.MaxStreams * prefetch.DepthLines(pc.DSCR))
	w.lastLine = -1 << 62
	return w
}

// home resolves the owning chip of an address.
func (w *Walker) home(addr uint64) arch.ChipID {
	if w.cfg.Home == nil {
		return w.cfg.Chip
	}
	return w.cfg.Home(addr) //p8:allow hotpath: the address-homing policy is configuration — a pure arithmetic map fixed at construction; indirection here is the design
}

// dramLatency returns the DRAM demand latency for an access, accounting
// for SMP hops and the strided row-pipelining effect.
func (w *Walker) dramLatency(home arch.ChipID, strided bool) float64 {
	lat := &w.m.Spec.Latency
	base := lat.LocalDRAMNs
	if strided {
		base = lat.DRAMStridedNs
	}
	return base + w.m.Net.HopLatencyNs(w.cfg.Chip, home)
}

// levelLatencyNs maps a hierarchy level to its load-to-use latency.
func (w *Walker) levelLatencyNs(level cache.Level, home arch.ChipID, strided bool) float64 {
	spec := w.m.Spec
	cyc := w.cycleNs
	switch level {
	case cache.LevelL1:
		return float64(spec.Chip.L1D.LatencyCycles) * cyc
	case cache.LevelL2:
		return float64(spec.Chip.L2.LatencyCycles) * cyc
	case cache.LevelL3:
		return float64(spec.Chip.L3PerCore.LatencyCycles) * cyc
	case cache.LevelL3Remote:
		return spec.Latency.L3RemoteNs
	case cache.LevelL4:
		return spec.Latency.L4HitNs
	default:
		return w.dramLatency(home, strided)
	}
}

// Access performs one dependent load and returns its latency in
// nanoseconds. Simulated time advances by the returned latency: the next
// access cannot issue before this one completes.
//
// Its zero-allocation budget is pinned by BenchmarkWalkerSequential,
// BenchmarkWalkerChase and BenchmarkWalkerBlockedRandom in
// walker_bench_test.go.
//
//p8:hotpath
func (w *Walker) Access(addr uint64) float64 {
	w.cfg.Budget.Charge(1)
	var latency float64
	switch w.xl.Translate(addr) {
	case tlb.ERATMiss:
		w.eratMisses++
		if units.Bytes(w.cfg.Page) > w.m.Spec.Xlate.ERATGranule {
			latency += w.m.Spec.Latency.ERATMissHugeNs
		} else {
			latency += w.m.Spec.Latency.ERATMissNs
		}
	case tlb.TLBMiss:
		w.tlbMisses++
		latency += w.m.Spec.Latency.TLBMissNs
	}

	line := addr &^ uint64(trace.LineSize-1)
	home := w.home(addr)

	curLine := int64(addr / trace.LineSize)
	delta := curLine - w.lastLine
	strided := w.haveDelta && delta == w.lastDelta && delta != 0
	w.lastDelta, w.lastLine, w.haveDelta = delta, curLine, true

	if done, ok := w.inflight.get(line); ok && w.nowNs-done < staleInflightNs {
		w.inflight.del(line)
		wait := done - w.nowNs
		if wait < 0 {
			wait = 0
		}
		latency += wait + float64(w.m.Spec.Chip.L1D.LatencyCycles)*w.cycleNs
		w.hier.Install(line)
		w.prefetchHits++
	} else {
		if ok {
			// The prefetch completed long ago; for the out-of-cache
			// footprints these experiments use, the line has been evicted
			// again by intervening traffic. Treat it as a fresh demand.
			w.inflight.del(line)
			w.staleDrops++
		}
		level := w.hier.Read(line, home == w.cfg.Chip)
		w.levelCounts[level]++
		latency += w.levelLatencyNs(level, home, strided)
	}

	if !w.cfg.DisablePrefetch {
		w.pfbuf = w.pf.OnDemandInto(addr, w.pfbuf[:0])
		for _, p := range w.pfbuf {
			w.schedule(p)
		}
	}

	w.nowNs += latency
	w.totalNs += latency
	w.accesses++
	return latency
}

// schedule books a hardware prefetch for a line: it completes after the
// full demand latency of its home memory, but completions are serialized
// at the stream's per-line service interval (the finite fill bandwidth of
// one prefetch stream), which is what floors the observed steady-state
// latency at UncoreLatency.MinPrefetchedNs and its distance-scaled
// variants.
//
// Runs once per prefetch candidate inside Access; same budget.
//
//p8:hotpath
func (w *Walker) schedule(lineAddr uint64) {
	if w.hier.ContainsAny(lineAddr) {
		return
	}
	if _, ok := w.inflight.get(lineAddr); ok {
		return
	}
	home := w.home(lineAddr)
	// Prefetches are stream accesses: the Centaur pipelines them like
	// strided demands.
	done := w.nowNs + w.dramLatency(home, true)
	interval := w.m.PrefetchedLatencyNs(w.cfg.Chip, home)
	if min := w.lastDone + interval; done < min {
		done = min
	}
	w.lastDone = done
	w.inflight.put(lineAddr, done)
}

// Hint issues a DCBT software-prefetch declaration for a stream of
// `lines` cache lines starting at start (dir +1/-1), booking the initial
// prefetch burst immediately (Section III-D, Figure 8).
func (w *Walker) Hint(start uint64, lines, dir int) {
	if w.cfg.DisablePrefetch {
		return
	}
	w.hints++
	for _, p := range w.pf.Hint(start, lines, dir) {
		w.schedule(p)
	}
}

// Run drives a trace through the walker, up to max accesses (all if
// max <= 0), and returns the aggregate result.
func (w *Walker) Run(g trace.Generator, max int) WalkResult {
	startNs, startAcc := w.totalNs, w.accesses
	n := 0
	for {
		addr, ok := g.Next()
		if !ok {
			break
		}
		w.Access(addr)
		n++
		if max > 0 && n >= max {
			break
		}
	}
	w.PublishStats()
	return WalkResult{
		Accesses: w.accesses - startAcc,
		TotalNs:  w.totalNs - startNs,
	}
}

// WalkResult summarizes a walker run.
type WalkResult struct {
	Accesses uint64
	TotalNs  float64
}

// AvgNs returns the mean per-access latency.
func (r WalkResult) AvgNs() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return r.TotalNs / float64(r.Accesses)
}

// ThreadBandwidth returns the single-thread data rate implied by the run
// (one line moved per access).
func (r WalkResult) ThreadBandwidth() units.Bandwidth {
	if r.TotalNs == 0 {
		return 0
	}
	return units.Bandwidth(float64(r.Accesses) * trace.LineSize / (r.TotalNs * 1e-9))
}

// WalkerStats is the per-source breakdown of a walker's accesses.
type WalkerStats struct {
	Accesses     uint64
	PrefetchHits uint64 // satisfied by a completed hardware prefetch
	Levels       map[cache.Level]uint64
	ERATMisses   uint64
	TLBMisses    uint64
}

// Stats returns the breakdown of everything this walker has simulated.
func (w *Walker) Stats() WalkerStats {
	levels := make(map[cache.Level]uint64, cache.NumLevels)
	for l, n := range w.levelCounts {
		if n > 0 {
			levels[cache.Level(l)] = n
		}
	}
	return WalkerStats{
		Accesses:     w.accesses,
		PrefetchHits: w.prefetchHits,
		Levels:       levels,
		ERATMisses:   w.eratMisses,
		TLBMisses:    w.tlbMisses,
	}
}

// DominantLevel returns the level that satisfied the most demand reads
// (prefetch hits excluded); ok is false when nothing was simulated.
func (s WalkerStats) DominantLevel() (cache.Level, bool) {
	// Iterate levels in hierarchy order rather than ranging over the
	// map: map order would break ties arbitrarily between runs, and the
	// fixed order resolves them toward the closest level.
	var best cache.Level
	var n uint64
	for l := 0; l < cache.NumLevels; l++ {
		if c := s.Levels[cache.Level(l)]; c > n {
			best, n = cache.Level(l), c
		}
	}
	return best, n > 0
}

// Hierarchy exposes the walker's cache state for tests and diagnostics.
func (w *Walker) Hierarchy() *cache.Hierarchy { return w.hier }

// Prefetcher exposes the walker's prefetch engine.
func (w *Walker) Prefetcher() *prefetch.Engine { return w.pf }

// NowNs returns the walker's simulated clock.
func (w *Walker) NowNs() float64 { return w.nowNs }
