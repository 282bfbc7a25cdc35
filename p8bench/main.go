// Command p8bench is the repository's benchmark: it measures how fast the
// reproduction produces its answers, end to end and layer by layer, on
// three seeded workloads, and checks that the answers are right.
//
//	p8bench --workload suite-quick|des-faults|p8d-closed --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) records spans around the benchmark's own calls into
// each layer, reads the counters the program's obs registries keep, and
// reports the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness gate makes the exit status 1. See README.md for the
// workloads, the metrics and which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Seeds: defaultSeed is what a run uses without --seed; a claimed gain
// must also hold on holdoutSeed, which is never used while tuning.
const (
	defaultSeed = 1
	holdoutSeed = 2
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"suite-quick": (*bench).suiteQuick,
	"des-faults":  (*bench).desFaults,
	"p8d-closed":  (*bench).p8dClosed,
}

// sizes scale a workload: the command line runs fullSizes, the smoke
// test tinySizes.
type sizes struct {
	setupReps    int      // batch set-ups per run; setup_s is their median
	bootReps     int      // p8d-closed boots per run; setup_s is their median
	coldPasses   int      // batch cold passes per run; cold_cpu_s sums medians over them
	warmReps     int      // warm requests per run
	paperIDs     []string // suite-quick experiments
	plans        []string // des-faults: canned plans, each run on e870 and max-smp
	fillJobs     int      // p8d-closed: done jobs in the recovery journal
	fillDistinct int      // p8d-closed: distinct requests among them
	loopJobs     int      // p8d-closed: jobs per client
	probeScale   int      // R-MAT scale of the host-kernel probes
	appendProbe  int      // direct journal appends timed per traced run
}

// fullSizes returns the command-line sizes. On a 2-CPU x86 host a cold
// pass of either batch workload takes about passSeconds and p8d-closed's
// loop about the run length, so a run measures for about that many
// seconds; for a given length, every run does the same work.
func fullSizes(seconds int) sizes {
	return sizes{
		setupReps:    401,
		coldPasses:   max(3, seconds/passSeconds),
		warmReps:     600,
		paperIDs:     quickIDs,
		plans:        desPlans,
		bootReps:     5,
		fillJobs:     10000,
		fillDistinct: 8,
		loopJobs:     max(12, seconds*12),
		probeScale:   16,
		appendProbe:  200,
	}
}

// passSeconds is about how long one cold pass of a batch workload takes
// on a 2-CPU x86 host.
const passSeconds = 6

// bench is one run's state.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	size     sizes
	scratch  string // per-run directory, removed at exit
	out      io.Writer
	log      io.Writer

	tr      *tracer       // nil on untraced runs
	reg     *obs.Registry // nil on untraced runs, as in p8repro without -stats
	gates   *gates
	e2e     map[string]float64
	layer   map[string]float64
	digest  digest
	clients int // load-generating goroutines
	workers int // kernel workers and DES shards while measuring; 0 = one per CPU
}

func main() { os.Exit(run(os.Args[1:], ".bench_build", os.Stdout, os.Stderr, fullSizes)) }

// run parses flags, runs one workload and prints the result; it returns
// the process exit status.
func run(args []string, buildDir string, stdout, stderr io.Writer, sizeFor func(int) sizes) int {
	fs := flag.NewFlagSet("p8bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: suite-quick, des-faults or p8d-closed")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (claims must also hold on seed %d)", holdoutSeed))
	seconds := fs.Int("seconds", 25, "sizes each workload to measure for about this many seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(stderr, "p8bench: need --workload suite-quick|des-faults|p8d-closed, --seed > 0, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		size:     sizeFor(*seconds),
		scratch:  scratch,
		out:      stdout,
		log:      stderr,
		gates:    &gates{log: stderr},
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		clients:  1,
	}
	if b.traced {
		b.tr, b.reg = newTracer(), obs.NewRegistry("p8bench")
	}
	runErr := drive(b)
	if runErr != nil {
		// An error the workload could not recover from is one failed
		// operation: the run cannot vouch for its outputs.
		b.gates.pass(false, "%s: %v", b.workload, runErr)
	}
	b.e2e["max_rss_mb"] = maxRSSMiB()
	b.printProvenance()
	if b.traced {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "p8bench: writing spans:", err)
		}
		b.tr.printSelfTimes(stderr)
	}

	res := result{
		Correct:   b.gates.failed == 0 && runErr == nil,
		Attempted: max(1, b.gates.attempted),
		Failed:    b.gates.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := endToEnd, b.e2e
	if b.traced {
		defs, values = perLayer, b.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "p8bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printProvenance prints the host block and the simulated-output
// identity line; both precede the result line.
func (b *bench) printProvenance() {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    b.workers,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"workload":   b.workload,
		"seed":       b.seed,
		"holdout":    holdoutSeed,
		"seconds":    b.seconds,
		"traced":     b.traced,
		"clients":    b.clients,
	}
	line, _ := json.Marshal(map[string]any{"host": host}) // plain map of scalars: cannot fail
	fmt.Fprintln(b.out, string(line))
	ident := map[string]any{
		"digest":  b.digest.String(),
		"reports": b.digest.reports,
	}
	if b.traced {
		ident["walker_accesses"] = uint64(b.layer["machine.walker.accesses"])
		ident["des_events"] = uint64(b.layer["engine.des.events"])
	}
	line, _ = json.Marshal(map[string]any{"identity": ident})
	fmt.Fprintln(b.out, string(line))
}

// commit names the source revision: git's HEAD when the working
// directory is a git checkout, "unknown" otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time, user and system, that the process has used.
// Unlike wall time it leaves out time the host took the virtual CPUs
// away (steal) and time spent waiting for a CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// setupMedian runs the workload's set-up reps times and records setup_s
// as the median of the times the set-up reports for itself, which leave
// out the benchmark's own bookkeeping. The caller keeps the state of the
// last rep.
func (b *bench) setupMedian(reps int, setup func() (float64, error)) error {
	var times []float64
	for i := 0; i < reps; i++ {
		t, err := setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, t)
	}
	b.e2e["setup_s"] = median(times)
	return nil
}
