// Command p8d is the long-running simulation service: the experiment
// harness, the fault layer and the content-addressed result cache
// behind an HTTP/JSON API.
//
// Usage:
//
//	p8d                          # serve on :8084, in-memory cache
//	p8d -addr 127.0.0.1:9000     # bind elsewhere
//	p8d -queue 64 -jobworkers 4  # deeper admission queue, 4 parallel jobs
//	p8d -cachedir /var/p8dcache  # persist reports: warm restarts
//	p8d -cachemb 256             # in-memory report cache budget
//	p8d -nocache                 # recompute everything, always (not with -cachedir)
//	p8d -kernelworkers 8         # worker-team size inside host kernels
//	p8d -journal /var/p8djournal # durable jobs: crash recovery on boot
//	p8d -fsync off               # journal without per-record fsync
//
// With -journal, every job lifecycle transition is written ahead to an
// append-only CRC-framed log, and a restarted daemon replays it:
// completed jobs stay listable with their reports served from the
// -cachedir store (pair the two flags), admitted-but-unstarted jobs run
// again, and jobs that were mid-run are retired as "interrupted".
// -fsync always (the default) makes every 202 durable against power
// loss; -fsync off trusts the OS page cache (process-crash-safe only)
// and requires -journal. See API.md "Restart semantics".
//
// Submit a job, poll it, fetch its results:
//
//	curl -s -X POST localhost:8084/v1/jobs \
//	     -d '{"experiments":["table3"],"quick":true}'
//	curl -s 'localhost:8084/v1/jobs/<id>?wait=30s'
//	curl -s  localhost:8084/v1/jobs/<id>/reports
//
// The full endpoint reference — schemas, error codes, the cache-key
// contract, streaming — is API.md at the repository root. The
// operational design (bounded queue, 429 admission control, drain on
// shutdown) is DESIGN.md "Service architecture".
//
// p8d always instruments itself: GET /v1/stats serves the live
// registry (service admission counters, the kernel runtime's shared
// team counters, the memo cache's hit/miss/eviction counters) as JSON,
// or as a Markdown table with ?format=markdown. Per-job experiment
// counters are opt-in per request ("stats": true) and served under
// /v1/jobs/{id}/stats.
//
// On SIGINT or SIGTERM the daemon drains: admission stops (new submits
// answer 503), every already-admitted job runs to completion, the HTTP
// server finishes in-flight responses, and the process exits 0. A
// second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	power8 "repro"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/service"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", ":8084", "listen address")
		queue    = flag.Int("queue", 16, "admission queue depth (jobs beyond it are rejected with 429)")
		jworkers = flag.Int("jobworkers", 2, "jobs executing concurrently")
		nocache  = flag.Bool("nocache", false, "disable the content-addressed result cache")
		cacheDir = flag.String("cachedir", "", "persist cached reports to this directory (warm restarts)")
		cacheMB  = flag.Int64("cachemb", 64, "in-memory report cache budget in MiB")
		kworkers = flag.Int("kernelworkers", 0, "worker-team size for the host kernels (0 = GOMAXPROCS)")
		waitcap  = flag.Duration("waitlimit", 60*time.Second, "upper bound on the ?wait long-poll parameter")
		jdir     = flag.String("journal", "", "write-ahead job journal directory (enables crash recovery)")
		fsyncStr = flag.String("fsync", "always", "journal fsync policy: always | off (off requires -journal)")
	)
	flag.Parse()

	if err := validateFlags(*queue, *jworkers, *cacheMB, *kworkers, *nocache, *cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "p8d:", err)
		flag.Usage()
		return 2
	}
	fsyncSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fsync" {
			fsyncSet = true
		}
	})
	syncPolicy, err := fsyncPolicy(*fsyncStr, fsyncSet, *jdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p8d:", err)
		flag.Usage()
		return 2
	}

	parallel.SetDefaultWorkers(*kworkers)

	// The service is always observed: the registry is the /v1/stats
	// endpoint, and the shared worker teams and the cache hang their
	// counters under it.
	root := power8.NewStatsRegistry("p8d")
	parallel.InstrumentShared(root)

	var cache *power8.SuiteCache
	if !*nocache {
		var err error
		cache, err = power8.NewSuiteCache(power8.CacheOptions{
			MaxBytes: *cacheMB << 20,
			Dir:      *cacheDir,
		}, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p8d:", err)
			return 2
		}
	}

	var jnl *journal.Journal
	var recovery journal.RecoveryInfo
	if *jdir != "" {
		var err error
		jnl, recovery, err = journal.Open(*jdir, journal.Options{Sync: syncPolicy, Stats: root})
		if err != nil {
			fmt.Fprintln(os.Stderr, "p8d: journal:", err)
			return 2
		}
	}

	svc := service.New(service.Options{
		QueueDepth: *queue,
		Workers:    *jworkers,
		Cache:      cache,
		Stats:      root,
		WaitLimit:  *waitcap,
		Journal:    jnl,
	})
	if jnl != nil {
		sum := svc.Recover(recovery.Records)
		fmt.Fprintf(os.Stderr, "p8d: journal %s: replayed %d records from %d segments (%s)\n",
			*jdir, len(recovery.Records), recovery.Segments, sum)
		if recovery.TornTail {
			fmt.Fprintln(os.Stderr, "p8d: journal: torn tail truncated (expected after a crash)")
		}
		if recovery.CorruptStop {
			fmt.Fprintln(os.Stderr, "p8d: journal: WARNING: corruption mid-log; replay stopped at the last trustworthy record")
		}
	}
	svc.Start()

	server := service.NewHTTPServer(*addr, svc.Handler())
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "p8d: serving on %s (queue %d, %d job workers, cache %s)\n",
		*addr, *queue, *jworkers, cacheMode(*nocache, *cacheDir))

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to bind or serve.
		fmt.Fprintln(os.Stderr, "p8d:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "p8d: %v — draining (admitted jobs run to completion; signal again to abort)\n", sig)
	}

	// Drain: stop admitting and let the workers finish every admitted
	// job, then let the HTTP server finish in-flight responses. A
	// second signal cuts both short.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "p8d: second signal — aborting drain")
		cancel()
	}()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "p8d: drain aborted:", err)
		_ = server.Close()
		return 1
	}
	if err := server.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "p8d: server shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "p8d: drained, exiting")
	return 0
}

// validateFlags rejects nonsensical values up front with one friendly
// line plus the usage text (exit 2), the same contract as p8repro.
// -cachedir with -nocache is rejected like -fsync without -journal: the
// directory would be silently ignored, and a restarted daemon could
// then serve no recovered done job.
func validateFlags(queue, jworkers int, cacheMB int64, kworkers int, nocache bool, cacheDir string) error {
	if queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", queue)
	}
	if jworkers < 1 {
		return fmt.Errorf("-jobworkers must be at least 1, got %d", jworkers)
	}
	if cacheMB < 1 {
		return fmt.Errorf("-cachemb must be at least 1, got %d", cacheMB)
	}
	if kworkers < 0 {
		return fmt.Errorf("-kernelworkers must be >= 0, got %d", kworkers)
	}
	if nocache && cacheDir != "" {
		return fmt.Errorf("-cachedir requires the cache (drop -nocache)")
	}
	return nil
}

// fsyncPolicy resolves the -fsync flag. An explicit -fsync without
// -journal is a configuration error (the policy governs nothing), and
// an unknown policy name is too; both exit 2 via the caller.
func fsyncPolicy(value string, explicit bool, journalDir string) (journal.SyncPolicy, error) {
	if explicit && journalDir == "" {
		return 0, fmt.Errorf("-fsync requires -journal (there is no journal to sync)")
	}
	switch value {
	case "always":
		return journal.SyncAlways, nil
	case "off":
		return journal.SyncNever, nil
	}
	return 0, fmt.Errorf("-fsync must be \"always\" or \"off\", got %q", value)
}

// cacheMode renders the cache configuration for the startup banner.
func cacheMode(nocache bool, dir string) string {
	switch {
	case nocache:
		return "off"
	case dir != "":
		return "memory+disk:" + dir
	default:
		return "memory"
	}
}
