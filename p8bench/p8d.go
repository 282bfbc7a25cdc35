package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	power8 "repro"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/service"
)

// The p8d-closed workload serves an in-process p8d (service.New with
// cmd/p8d's defaults: a 16-deep queue, 2 job workers, a 64 MiB report
// cache over a disk directory and a write-ahead journal) over loopback
// HTTP to two closed-loop clients. The journal runs with fsync=off: a hit
// appends and fsyncs four records, and on a virtual disk the fsync tail
// made hit latency too unsteady to gate on (hit p90 IQR/median 0.3-0.7
// across seeds, against 0.1 with fsync=off). The fsync cost is measured
// on its own by the journal append probe.

const (
	p8dQueue   = 16
	p8dWorkers = 2
	p8dCacheMB = 64
	p8dClients = 2
	// missEvery sets the mix: one job in missEvery is a miss. A miss
	// costs ~300x a hit, so a quarter misses still leaves most of the
	// loop's time in misses while giving the hit percentiles three times
	// the samples an even mix would.
	missEvery = 4
	// missHorizonNs is the DES horizon of a quick deg-plan, the miss
	// request's one experiment; degPlanHorizonNs is the full-size one.
	missHorizonNs    = 50_000
	degPlanHorizonNs = 200_000
)

// daemon is one booted p8d: the service, its journal and its registry.
type daemon struct {
	svc *service.Service
	jnl *journal.Journal
	reg *obs.Registry
}

// jobView is the part of the service's job JSON the clients read.
type jobView struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// sample is one completed closed-loop job.
type sample struct {
	hit                      bool
	traced                   bool
	latency, submit, reports time.Duration
	queueWait, exec, handoff time.Duration
	fingerprint              string
	reportsBody              []byte
	// missReports are a miss's decoded reports, for the digest.
	missReports []*power8.Report
}

// missRequest is a quick deg-plan on the E870 under a fault seed no
// earlier request used.
func missRequest(faultSeed uint64) service.Request {
	return service.Request{Spec: "e870", Experiments: []string{"deg-plan"}, Quick: true, FaultSeed: faultSeed}
}

// fillRequests are the distinct requests the recovery journal's done
// jobs cycle through. They spell their random plans out in the fault
// grammar: a normalized faultseed request carries both the seed and the
// spelled-out plan, which recovery does not re-normalize (see
// README.md), so journaled faultseed jobs would be dropped at boot.
func (b *bench) fillRequests() []service.Request {
	e870 := power8.E870Spec()
	r := rng.New(b.seed ^ 0xf111)
	reqs := make([]service.Request, b.size.fillDistinct)
	for i := range reqs {
		plan := fault.Random(1+r.Uint64n(1<<40), e870, 4)
		reqs[i] = service.Request{Spec: "e870", Experiments: []string{"deg-plan"}, Quick: true, Faults: plan.String()}
	}
	return reqs
}

// p8dClosed fills a journal with done jobs through the real Submit path,
// boots p8d over copies of it (setup_s is the boot: journal.Open plus
// Service.Recover), then runs the closed loop: each client submits,
// long-polls ?wait= until done, and fetches /reports. One job in
// missEvery is a miss; the others repeat a request whose job already
// completed. cold_cpu_s is the CPU time the loop costs; warm_ms is the
// median hit latency.
func (b *bench) p8dClosed() error {
	b.clients = p8dClients
	cacheDir, err := b.freshDir("cache")
	if err != nil {
		return err
	}
	fillDir, err := b.freshDir("journal-fill")
	if err != nil {
		return err
	}
	fill := b.fillRequests()
	sp := b.tr.begin("service.fill", 0)
	var fillErr error
	b.layer["service.fill_s"] = timeIt(func() { fillErr = b.fillJournal(fillDir, cacheDir, fill) })
	b.tr.end(sp)
	if fillErr != nil {
		return fmt.Errorf("fill journal: %w", fillErr)
	}

	// Each boot replays its own copy: Recover compacts the journal.
	copies := make([]string, b.size.bootReps)
	for i := range copies {
		if copies[i], err = b.freshDir("journal"); err != nil {
			return err
		}
		if err := copyDir(fillDir, copies[i]); err != nil {
			return err
		}
	}
	var d *daemon
	var replay, recovers []float64
	err = b.setupMedian(b.size.bootReps, func() (float64, error) {
		// Only the last boot serves; close the one before it, which was
		// never started, outside the timed boot.
		if d != nil {
			if err := d.jnl.Close(); err != nil {
				return 0, err
			}
		}
		var t, r1, r2 float64
		var err error
		d, t, r1, r2, err = b.boot(copies[len(replay)], cacheDir)
		replay, recovers = append(replay, r1), append(recovers, r2)
		return t, err
	})
	if err != nil {
		return err
	}
	b.layer["journal.replay_s"] = median(replay)
	b.layer["service.recover_s"] = median(recovers)

	// The fill and the boots leave a large heap behind; collect it so
	// every run starts its loop from the same state.
	runtime.GC()
	samples, loop, cpu, err := b.closedLoop(d, fill)
	closeErr := d.jnl.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	b.summarizeLoop(samples, loop, cpu, d.reg)
	if b.traced {
		e870 := power8.NewE870()
		var plans []planCase
		for i := 0; i < 20; i++ {
			plans = append(plans, planCase{plan: fault.Random(b.missSeed(i%p8dClients, i/p8dClients), e870.Spec, 4), m: e870})
		}
		b.probeDES([]desCase{{label: "e870/healthy", m: e870}, {label: "e870/miss-plan", m: plans[0].derive()}}, missHorizonNs)
		b.probeDerive(plans)
		var loads []loadCase
		degPlan := pick(power8.FaultExperiments(), []string{"deg-plan"})[0]
		for _, req := range fill {
			plan, err := fault.Parse(req.Faults)
			if !b.gates.pass(err == nil, "fill request plan %q: %v", req.Faults, err) {
				continue
			}
			loads = append(loads, loadCase{label: "fill", e: degPlan, m: e870, opts: power8.RunOptions{Quick: true, Faults: plan}})
		}
		b.probeLoad(cacheDir, loads)
		b.probeCanon(e870)
		b.probeSolver(e870)
		b.probeAppend()
	}
	return nil
}

// boot opens the journal in dir and recovers a fresh service from it;
// it returns the daemon and the boot's time, of which the journal.Open
// and the Recover times are the last two results.
func (b *bench) boot(dir, cacheDir string) (*daemon, float64, float64, float64, error) {
	t0 := time.Now()
	// p8d is always observed: its registry backs /v1/stats, and the
	// shared worker teams and the cache hang their counters under it.
	reg := obs.NewRegistry("p8d")
	parallel.InstrumentShared(reg)
	cache, err := power8.NewSuiteCache(power8.CacheOptions{MaxBytes: p8dCacheMB << 20, Dir: cacheDir}, reg)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	sp := b.tr.begin("journal.open", 0)
	t1 := time.Now()
	jnl, info, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever, Stats: reg})
	replay := time.Since(t1).Seconds()
	b.tr.end(sp)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	svc := service.New(service.Options{QueueDepth: p8dQueue, Workers: p8dWorkers, Cache: cache, Stats: reg, Journal: jnl})
	sp = b.tr.begin("service.recover", 0)
	t2 := time.Now()
	sum := svc.Recover(info.Records)
	recovered := time.Since(t2).Seconds()
	total := time.Since(t0).Seconds()
	b.tr.end(sp)
	b.gates.pass(sum.Done == b.size.fillJobs && sum.Dropped == 0 && sum.Interrupted == 0 && sum.Requeued == 0 && !info.TornTail && !info.CorruptStop,
		"recovery of %d done jobs gave %s (torn tail %v, corrupt stop %v)", b.size.fillJobs, sum, info.TornTail, info.CorruptStop)
	return &daemon{svc: svc, jnl: jnl, reg: reg}, total, replay, recovered, nil
}

// fillJournal runs size.fillJobs jobs to completion through an
// in-process service's HTTP handler, cycling through reqs. The fill uses
// fsync=off: the records are the same either way, and the fill is not
// what the workload measures.
func (b *bench) fillJournal(dir, cacheDir string, reqs []service.Request) error {
	cache, err := power8.NewSuiteCache(power8.CacheOptions{MaxBytes: p8dCacheMB << 20, Dir: cacheDir}, nil)
	if err != nil {
		return err
	}
	jnl, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		return err
	}
	svc := service.New(service.Options{QueueDepth: p8dQueue, Workers: p8dWorkers, Cache: cache, Journal: jnl})
	svc.Start()
	h := svc.Handler()
	errs := make(chan error, p8dClients)
	var wg sync.WaitGroup
	for c := 0; c < p8dClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.size.fillJobs; i += p8dClients {
				body, err := json.Marshal(reqs[i%len(reqs)])
				if err != nil {
					errs <- err
					return
				}
				var v jobView
				if err := serveJSON(h, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &v); err != nil {
					errs <- err
					return
				}
				if err := serveJSON(h, http.MethodGet, "/v1/jobs/"+v.ID+"?wait=60s", nil, http.StatusOK, &v); err != nil {
					errs <- err
					return
				}
				if v.State != "done" {
					errs <- fmt.Errorf("fill job %s is %s after the long-poll", v.ID, v.State)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	shutErr := svc.Shutdown(ctx)
	closeErr := jnl.Close()
	return errors.Join(<-errs, shutErr, closeErr)
}

// serveJSON calls the handler in-process and decodes the JSON answer.
func serveJSON(h http.Handler, method, target string, body []byte, want int, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, target, rec.Code, want, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// missSeed is the fault seed of client c's i-th miss: unique per run
// and never used by the fill (whose requests spell their plans out).
func (b *bench) missSeed(c, i int) uint64 {
	return b.seed<<24 | uint64(c)<<20 | uint64(i+1)
}

// loopClient is one closed-loop client's state.
type loopClient struct {
	idx     int
	r       *rng.Rand
	classes []bool // true = hit, false = miss; a seeded shuffle, one miss in missEvery
	pool    []service.Request
	misses  int
}

// closedLoop starts the HTTP server, runs the clients to completion and
// shuts everything down; it returns the samples and the loop's wall time
// and the CPU time the process (server and clients) spent on it.
func (b *bench) closedLoop(d *daemon, fill []service.Request) ([]sample, time.Duration, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	d.svc.Start()
	srv := service.NewHTTPServer(ln.Addr().String(), d.svc.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: p8dClients, MaxIdleConnsPerHost: p8dClients, DisableCompression: true}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	bodies := &bodyBook{first: map[string][32]byte{}}
	results := make([][]sample, p8dClients)
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	for c := 0; c < p8dClients; c++ {
		cl := &loopClient{idx: c, r: rng.New(b.seed*1000 + uint64(c)), pool: append([]service.Request(nil), fill...)}
		cl.classes = make([]bool, b.size.loopJobs)
		for i := range cl.classes {
			cl.classes[i] = i%missEvery != 0
		}
		cl.r.Shuffle(len(cl.classes), func(i, j int) { cl.classes[i], cl.classes[j] = cl.classes[j], cl.classes[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[cl.idx] = b.runClient(cl, client, base, bodies)
		}()
	}
	wg.Wait()
	loop, cpu := time.Since(t0), cpuTime()-c0

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	shutErr := srv.Shutdown(ctx)
	serveErr := <-served
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	drainErr := d.svc.Shutdown(ctx)
	transport.CloseIdleConnections()
	var all []sample
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all, loop, cpu, errors.Join(shutErr, serveErr, drainErr)
}

// bodyBook remembers the first /reports body of every job fingerprint.
type bodyBook struct {
	mu    sync.Mutex
	first map[string][32]byte
}

// check records body as the fingerprint's first body, or reports whether
// it equals the first.
func (bb *bodyBook) check(fp string, body []byte) bool {
	sum := sha256.Sum256(body)
	bb.mu.Lock()
	defer bb.mu.Unlock()
	prev, ok := bb.first[fp]
	if !ok {
		bb.first[fp] = sum
		return true
	}
	return prev == sum
}

// runClient runs one client's job list and returns its samples. Each job
// is one gated operation: any non-2xx answer, a job that is not done
// after the long-poll, a hit/miss class the server's cache tally
// disagrees with, or a /reports body that differs from the fingerprint's
// first one fails it.
func (b *bench) runClient(cl *loopClient, client *http.Client, base string, bodies *bodyBook) []sample {
	var out []sample
	for i, hit := range cl.classes {
		var req service.Request
		if hit {
			req = cl.pool[cl.r.Intn(len(cl.pool))]
		} else {
			req = missRequest(b.missSeed(cl.idx, cl.misses))
			cl.misses++
		}
		// On traced runs every other job records spans, so the trace
		// overhead is the difference between the two halves.
		tr := b.tr
		if i%2 == 1 {
			tr = nil
		}
		s, err := b.oneJob(tr, client, base, req)
		if !b.gates.pass(err == nil, "client %d job %d: %v", cl.idx, i, err) {
			continue
		}
		s.traced = tr != nil
		classOK := (hit && s.hit) || (!hit && !s.hit)
		bodyOK := bodies.check(s.fingerprint, s.reportsBody)
		if !b.gates.pass(classOK && bodyOK, "client %d job %d: intended hit=%v, server cache tally says hit=%v; body matches first=%v",
			cl.idx, i, hit, s.hit, bodyOK) {
			continue
		}
		if !hit {
			cl.pool = append(cl.pool, req)
			if err := json.Unmarshal(s.reportsBody, &s.missReports); err != nil {
				b.gates.pass(false, "client %d job %d: /reports body: %v", cl.idx, i, err)
			}
		}
		s.reportsBody = nil
		out = append(out, s)
	}
	return out
}

// oneJob runs submit -> ?wait= long-poll -> /reports for one request.
func (b *bench) oneJob(tr *tracer, client *http.Client, base string, req service.Request) (sample, error) {
	var s sample
	body, err := json.Marshal(req)
	if err != nil {
		return s, err
	}
	job := tr.begin("p8d.job", 0)
	defer tr.end(job)
	t0 := time.Now()
	var v jobView
	sp := tr.begin("http.submit", job)
	err = doJSON(client, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &v)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	sp = tr.begin("http.wait", job)
	err = doJSON(client, http.MethodGet, base+"/v1/jobs/"+v.ID+"?wait=60s", nil, http.StatusOK, &v)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	if v.State != "done" {
		return s, fmt.Errorf("job %s is %s after the long-poll", v.ID, v.State)
	}
	t2 := time.Now()
	sp = tr.begin("http.reports", job)
	reports, err := doRaw(client, http.MethodGet, base+"/v1/jobs/"+v.ID+"/reports", nil, http.StatusOK)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	t3 := time.Now()

	if v.CacheHits+v.CacheMisses != 1 {
		return s, fmt.Errorf("job %s tallies %d hits and %d misses for one experiment", v.ID, v.CacheHits, v.CacheMisses)
	}
	sub, err1 := time.Parse(time.RFC3339Nano, v.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, v.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, v.FinishedAt)
	if err := errors.Join(err1, err2, err3); err != nil {
		return s, fmt.Errorf("job %s timestamps: %w", v.ID, err)
	}
	s = sample{
		hit:         v.CacheHits == 1,
		latency:     t3.Sub(t0),
		submit:      t1.Sub(t0),
		reports:     t3.Sub(t2),
		queueWait:   start.Sub(sub),
		exec:        fin.Sub(start),
		handoff:     t3.Sub(t0) - fin.Sub(sub),
		fingerprint: v.Fingerprint,
		reportsBody: reports,
	}
	return s, nil
}

// doJSON sends one request and decodes the JSON answer.
func doJSON(client *http.Client, method, url string, body []byte, want int, v any) error {
	data, err := doRaw(client, method, url, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// doRaw sends one request and returns the body of a response with the
// wanted status.
func doRaw(client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// summarizeLoop turns the samples into metrics. cold_cpu_s is the loop's
// CPU time; warm_ms is the median hit latency; the service.*
// per-layer metrics split a job into its phases: request-path phases
// (submit, reports, handoff) over hits, compute-path phases (queue wait,
// exec) over misses.
func (b *bench) summarizeLoop(samples []sample, loop, cpu time.Duration, reg *obs.Registry) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var hitLat, missLat, submit, reports, handoff, queueWait, exec, hitTraced, hitPlain []float64
	for _, s := range samples {
		for _, rep := range s.missReports {
			b.digest.add(rep)
		}
		if s.hit {
			hitLat = append(hitLat, ms(s.latency))
			submit = append(submit, ms(s.submit))
			reports = append(reports, ms(s.reports))
			handoff = append(handoff, ms(s.handoff))
			if s.traced {
				hitTraced = append(hitTraced, ms(s.latency))
			} else {
				hitPlain = append(hitPlain, ms(s.latency))
			}
		} else {
			missLat = append(missLat, ms(s.latency))
			queueWait = append(queueWait, ms(s.queueWait))
			exec = append(exec, ms(s.exec))
		}
	}
	b.e2e["cold_cpu_s"] = cpu.Seconds()
	b.e2e["warm_ms"] = median(hitLat)
	b.layer["service.hit_p90_ms"] = quantile(hitLat, 0.9)
	b.layer["service.miss_p50_ms"] = median(missLat)
	b.layer["service.miss_p90_ms"] = quantile(missLat, 0.9)
	b.layer["service.jobs_per_s"] = float64(len(samples)) / loop.Seconds()
	b.layer["service.submit_ms"] = median(submit)
	b.layer["service.reports_ms"] = median(reports)
	b.layer["service.handoff_ms"] = median(handoff)
	b.layer["service.queue_wait_ms"] = median(queueWait)
	b.layer["service.exec_ms"] = median(exec)
	if b.traced && len(hitPlain) > 0 {
		b.layer["obs.trace_overhead_frac"] = median(hitTraced)/median(hitPlain) - 1
	}
	counts := reg.Snapshot().CounterMap()
	b.layer["journal.appends"] = float64(sumSuffix(counts, "/journal/appends"))
	b.memoLayer(reg)
	fmt.Fprintf(b.log, "p8bench: p8d-closed loop %.3fs wall, %.3fs CPU, %d jobs (%.2f/s); hit p50 %.3fms p90 %.3fms (n=%d); miss p50 %.1fms p90 %.1fms (n=%d)\n",
		loop.Seconds(), cpu.Seconds(), len(samples), b.layer["service.jobs_per_s"], b.e2e["warm_ms"], b.layer["service.hit_p90_ms"], len(hitLat),
		b.layer["service.miss_p50_ms"], b.layer["service.miss_p90_ms"], len(missLat))
}

// probeAppend times direct journal appends under fsync=always on the
// real file system, cycling through the four records a job writes, and
// counts the fsyncs they make.
func (b *bench) probeAppend() {
	dir, err := b.freshDir("journal-probe")
	if !b.gates.pass(err == nil, "journal probe: %v", err) {
		return
	}
	reg := obs.NewRegistry("journal-probe")
	jnl, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways, Stats: reg})
	if !b.gates.pass(err == nil, "journal probe: %v", err) {
		return
	}
	reqJSON, _ := json.Marshal(missRequest(b.missSeed(0, 0))) // a struct of scalars and strings: cannot fail
	var us []float64
	for i := 0; i < b.size.appendProbe; i++ {
		id := fmt.Sprintf("j%d-probe", i/4+1)
		recs := []journal.Record{
			{Kind: journal.KindSubmitted, JobID: id, Seq: uint64(i/4 + 1), Request: reqJSON},
			{Kind: journal.KindRunning, JobID: id},
			{Kind: journal.KindReport, JobID: id},
			{Kind: journal.KindDone, JobID: id},
		}
		sp := b.tr.begin("journal.append", 0)
		t0 := time.Now()
		err := jnl.Append(recs[i%4])
		us = append(us, 1e6*time.Since(t0).Seconds())
		b.tr.end(sp)
		if !b.gates.pass(err == nil, "journal probe append: %v", err) {
			break
		}
	}
	b.gates.pass(jnl.Close() == nil, "journal probe: close failed")
	b.layer["journal.append_us"] = median(us)
	b.layer["journal.fsyncs"] = float64(sumSuffix(reg.Snapshot().CounterMap(), "/journal/fsyncs"))
}
