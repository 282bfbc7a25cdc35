package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	power8 "repro"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's schema; BENCHMARK.json at the repository root names
// the same metrics (the smoke test checks the two agree).
type metricDef struct {
	name, unit string
}

// endToEnd metrics are emitted by untraced runs of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_cpu_s", "s"},
	{"warm_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// quickIDs are the quick-suite experiments suite-quick runs: all 18 but
// figure 2 and figure 10, which take ~13 s and ~10 s of a ~28 s cold
// quick suite on a 2-CPU x86 host, too long to repeat a cold pass of the
// suite within a run. Figures 6-8 keep the walker and figures 11-12 and
// tables 5-6 the host kernels in the measured passes.
// desPlans are the canned fault plans des-faults runs: worst-day has
// every kind of fault, spared-abus narrows the inter-group A-bus that
// the 16-socket machine's traffic crosses.
// quickIDs and degIDs are the experiments whose CPU time is reported
// per layer as experiments.<id>.cpu_s.
var (
	quickIDs = []string{"table1", "table2", "figure1", "table3", "figure3", "table4", "figure4", "figure5",
		"figure6", "figure7", "figure8", "figure9", "figure11", "figure12", "table5", "table6"}
	desPlans = []string{"worst-day"}
	degIDs   = []string{"deg-lanes", "deg-cores", "deg-channels", "deg-plan"}
)

// perLayer metrics are emitted by traced runs of every workload; a layer
// a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, id := range append(append([]string(nil), quickIDs...), degIDs...) {
		defs = append(defs, metricDef{"experiments." + id + ".cpu_s", "s"})
	}
	return append(defs, []metricDef{
		{"machine.walker.accesses", "count"},
		{"machine.walker.ns_per_access", "ns"},
		{"machine.solver.us_per_call", "us"},
		{"engine.des.events", "count"},
		{"engine.des.rounds", "count"},
		{"engine.des.mailbox_msgs", "count"},
		{"engine.des.ns_per_event", "ns"},
		{"engine.des.us_per_round", "us"},
		{"engine.des.shard_speedup", "x"},
		{"fault.derive_us", "us"},
		{"spmv.csr.s", "s"},
		{"jaccard.allpairs.s", "s"},
		{"hf.scf.s", "s"},
		{"graph.rmat.s", "s"},
		{"parallel.dispatches", "count"},
		{"parallel.imbalance_permille", "permille"},
		{"canon.machine_fp_us", "us"},
		{"memo.hits", "count"},
		{"memo.misses", "count"},
		{"memo.hit_ratio", "ratio"},
		{"memo.disk_read_us", "us"},
		{"memo.disk_write_us", "us"},
		{"memo.load_us", "us"},
		{"journal.appends", "count"},
		{"journal.fsyncs", "count"},
		{"journal.append_us", "us"},
		{"journal.replay_s", "s"},
		{"service.fill_s", "s"},
		{"service.recover_s", "s"},
		{"service.submit_ms", "ms"},
		{"service.queue_wait_ms", "ms"},
		{"service.exec_ms", "ms"},
		{"service.reports_ms", "ms"},
		{"service.handoff_ms", "ms"},
		{"service.hit_p90_ms", "ms"},
		{"service.miss_p50_ms", "ms"},
		{"service.miss_p90_ms", "ms"},
		{"service.jobs_per_s", "1/s"},
		{"obs.trace_overhead_frac", "ratio"},
	}...)
}()

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gates counts checked operations and the ones that failed a
// correctness gate. Safe for concurrent use by the p8d clients.
type gates struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

// pass records one checked operation; ok false counts it failed and
// prints why.
func (g *gates) pass(ok bool, format string, args ...any) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
		fmt.Fprintf(g.log, "GATE FAILED: "+format+"\n", args...)
	}
	return ok
}

// reportGate checks one report: FAILED (did not complete) and MISMATCH
// (a paper-vs-measured check failed) both fail the gate.
func (g *gates) reportGate(where string, rep *power8.Report) bool {
	return g.pass(rep != nil && rep.Status() == "ok", "%s: report %s is %s", where, repID(rep), repStatus(rep))
}

func repID(rep *power8.Report) string {
	if rep == nil {
		return "<nil>"
	}
	return rep.ID
}

func repStatus(rep *power8.Report) string {
	if rep == nil {
		return "missing"
	}
	return rep.Status()
}

// hostMeasured are the reports whose lines and checks carry host wall
// time (kernel timings, host GF/s); they are left out of the simulated
// output digest.
var hostMeasured = map[string]bool{"figure9": true, "figure10": true, "figure11": true, "figure12": true, "table6": true}

// digest accumulates a SHA-256 over the Lines and Checks of model-driven
// reports, in the order they are added.
type digest struct {
	h       [sha256.Size]byte
	reports int
}

func (d *digest) add(rep *power8.Report) {
	if rep == nil || hostMeasured[rep.ID] {
		return
	}
	h := sha256.New()
	h.Write(d.h[:])
	writeStr := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeF := func(v float64) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], math.Float64bits(v))
		h.Write(n[:])
	}
	writeStr(rep.ID)
	for _, l := range rep.Lines {
		writeStr(l)
	}
	for _, c := range rep.Checks {
		writeStr(c.Name)
		writeF(c.Got)
		writeF(c.Want)
		writeF(c.Tol)
		if c.Min {
			writeStr("min")
		}
	}
	copy(d.h[:], h.Sum(nil))
	d.reports++
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:]) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile 0.5.
func median(vs []float64) float64 { return quantile(vs, 0.5) }
