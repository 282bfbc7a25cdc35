package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	power8 "repro"
	"repro/internal/iofault"
	"repro/internal/journal"
)

// openTestJournal opens a journal over an in-memory filesystem.
func openTestJournal(t *testing.T, mem *iofault.Mem) (*journal.Journal, journal.RecoveryInfo) {
	t.Helper()
	j, info, err := journal.Open("wal", journal.Options{FS: mem})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	return j, info
}

// TestJournalRestartServesReports is the restart round trip in one
// process: run a job to completion under a journal and a disk cache,
// "restart" (new journal replay, new service, new cache over the same
// directories), and require the recovered job to be listed as done and
// its reports body to be byte-identical — without recomputing.
func TestJournalRestartServesReports(t *testing.T) {
	checkRestartServesReports(t, `{"experiments":["table3"],"quick":true}`)
}

// TestJournalRestartServesFaultSeedJob is the same round trip for a
// seeded fault plan. The journal holds the normalized request, which
// carries both the seed and the plan it spells out; recovery must
// accept that pair again instead of dropping the job.
func TestJournalRestartServesFaultSeedJob(t *testing.T) {
	checkRestartServesReports(t, `{"experiments":["deg-lanes"],"quick":true,"faultseed":42}`)
}

func checkRestartServesReports(t *testing.T, body string) {
	t.Helper()
	mem := iofault.NewMem()
	cacheDir := t.TempDir()

	// First life: run one job to completion.
	jnl, _ := openTestJournal(t, mem)
	cache, err := power8.NewSuiteCache(power8.CacheOptions{Dir: cacheDir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{Cache: cache, Journal: jnl})
	v := submitAndWait(t, ts.URL, body)
	_, firstReports := get(t, ts.URL, "/v1/jobs/"+v.ID+"/reports")
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: replay the journal into a fresh service and cache.
	jnl2, info := openTestJournal(t, mem)
	if info.CorruptStop {
		t.Fatalf("replay flagged corruption: %+v", info)
	}
	cache2, err := power8.NewSuiteCache(power8.CacheOptions{Dir: cacheDir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Options{Cache: cache2, Journal: jnl2})
	sum := svc2.Recover(info.Records)
	if sum.Done != 1 || sum.Requeued != 0 || sum.Interrupted != 0 || sum.Dropped != 0 {
		t.Fatalf("recovery summary %+v, want exactly one done job", sum)
	}
	svc2.Start()
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		if err := svc2.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := jnl2.Close(); err != nil {
			t.Errorf("journal close: %v", err)
		}
	}()

	// The recovered job is listed, done, and flagged recovered with no
	// wall-clock provenance.
	code, b := get(t, ts2.URL, "/v1/jobs/"+v.ID)
	if code != http.StatusOK {
		t.Fatalf("recovered job poll: %d, body %s", code, b)
	}
	var rv jobView
	if err := json.Unmarshal(b, &rv); err != nil {
		t.Fatal(err)
	}
	if rv.State != Done || !rv.Recovered {
		t.Fatalf("recovered job view: state %s, recovered %v", rv.State, rv.Recovered)
	}
	if rv.SubmittedAt != "" || rv.FinishedAt != "" {
		t.Fatalf("recovered job carries wall-clock provenance: %+v", rv)
	}
	if rv.Fingerprint != v.Fingerprint {
		t.Fatalf("fingerprint changed across restart: %s vs %s", rv.Fingerprint, v.Fingerprint)
	}

	// The reports body is byte-identical to the first life's.
	code, second := get(t, ts2.URL, "/v1/jobs/"+v.ID+"/reports")
	if code != http.StatusOK {
		t.Fatalf("recovered reports: %d, body %s", code, second)
	}
	if string(second) != string(firstReports) {
		t.Fatalf("reports changed across restart:\n--- before ---\n%s\n--- after ---\n%s", firstReports, second)
	}
	// Nothing was recomputed: the reports came out of the cache.
	if misses := cache2.Reports().Len(); misses == 0 {
		t.Fatal("cache untouched — reports did not come from it")
	}
}

// TestRecoverInterruptsMidRunJobs: a journal showing a job mid-run
// (Running, no Done) recovers it as Interrupted — terminal, 410 on
// reports, trailer-only stream — and the verdict is compacted back
// into the log so the next restart agrees.
func TestRecoverInterruptsMidRunJobs(t *testing.T) {
	mem := iofault.NewMem()
	jnl, _ := openTestJournal(t, mem)
	// Forge the crashed process's log: admitted and started, never done.
	req, _ := json.Marshal(Request{Spec: "e870", Suite: "paper", Experiments: []string{"table3"}, Quick: true})
	probe := New(Options{})
	nreq, m, _, plan, err := normalize(Request{Experiments: []string{"table3"}, Quick: true}, probe.machines)
	if err != nil {
		t.Fatal(err)
	}
	req, _ = json.Marshal(nreq)
	fp := fingerprintJob(nreq, m, plan)
	id := jobID(7, fp)
	for _, r := range []journal.Record{
		{Kind: journal.KindSubmitted, JobID: id, Seq: 7, Fingerprint: fp, Request: req},
		{Kind: journal.KindRunning, JobID: id},
	} {
		if err := jnl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, info := openTestJournal(t, mem)
	svc := New(Options{Journal: jnl2})
	sum := svc.Recover(info.Records)
	if sum.Interrupted != 1 || sum.Requeued != 0 || sum.Done != 0 {
		t.Fatalf("recovery summary %+v, want one interrupted job", sum)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := jnl2.Close(); err != nil {
			t.Errorf("journal close: %v", err)
		}
	}()

	code, b := get(t, ts.URL, "/v1/jobs/"+id)
	var rv jobView
	if code != http.StatusOK || json.Unmarshal(b, &rv) != nil {
		t.Fatalf("poll: %d %s", code, b)
	}
	if rv.State != Interrupted || !rv.Recovered {
		t.Fatalf("state %s recovered %v, want interrupted+recovered", rv.State, rv.Recovered)
	}
	// Admission numbering resumes past the recovered sequence.
	code, b = post(t, ts.URL, `{"experiments":["table1"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after recovery: %d %s", code, b)
	}
	var nv jobView
	if err := json.Unmarshal(b, &nv); err != nil {
		t.Fatal(err)
	}
	if nv.ID == id || nv.ID[:2] != "j8" {
		t.Fatalf("post-recovery job ID %q, want sequence to resume at 8", nv.ID)
	}

	code, b = get(t, ts.URL, "/v1/jobs/"+id+"/reports")
	if code != http.StatusGone {
		t.Fatalf("interrupted reports: %d %s, want 410", code, b)
	}
	// The stream ends immediately with an interrupted trailer.
	code, b = get(t, ts.URL, "/v1/jobs/"+id+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	var trailer streamTrailer
	if err := json.Unmarshal(b, &trailer); err != nil || trailer.State != Interrupted {
		t.Fatalf("stream trailer %s (%v), want interrupted", b, err)
	}

	// The compacted log reduces to the same verdict: one interrupted
	// job (plus the new submission).
	states := journalStates(t, mem, jnl2)
	if len(states) != 2 || !states[0].Interrupted {
		t.Fatalf("compacted log states: %+v", states)
	}
}

// journalStates closes nothing; it re-reads the log bytes directly.
func journalStates(t *testing.T, mem *iofault.Mem, jnl *journal.Journal) []*journal.JobState {
	t.Helper()
	// Append through the same journal handle is still open; replaying a
	// copy of the directory is safe because segments are append-only.
	copyFS := iofault.NewMem()
	names, err := mem.ReadDir(jnl.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := mem.ReadFile(jnl.Dir() + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := copyFS.Create(jnl.Dir() + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, info, err := journal.Open(jnl.Dir(), journal.Options{FS: copyFS})
	if err != nil {
		t.Fatal(err)
	}
	return journal.Reduce(info.Records)
}

// TestRecoverRequeuesUnstartedJobs: a Submitted-only record re-enqueues
// the job on restart, and it runs to completion.
func TestRecoverRequeuesUnstartedJobs(t *testing.T) {
	mem := iofault.NewMem()
	jnl, _ := openTestJournal(t, mem)
	probe := New(Options{})
	nreq, m, _, plan, err := normalize(Request{Experiments: []string{"table3"}, Quick: true}, probe.machines)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(nreq)
	fp := fingerprintJob(nreq, m, plan)
	id := jobID(3, fp)
	if err := jnl.Append(journal.Record{Kind: journal.KindSubmitted, JobID: id, Seq: 3, Fingerprint: fp, Request: req}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, info := openTestJournal(t, mem)
	svc := New(Options{Journal: jnl2})
	sum := svc.Recover(info.Records)
	if sum.Requeued != 1 {
		t.Fatalf("recovery summary %+v, want one requeued job", sum)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := jnl2.Close(); err != nil {
			t.Errorf("journal close: %v", err)
		}
	}()

	deadline := time.Now().Add(time.Minute)
	for {
		code, b := get(t, ts.URL, "/v1/jobs/"+id+"?wait=10s")
		if code != http.StatusOK {
			t.Fatalf("poll: %d %s", code, b)
		}
		var rv jobView
		if err := json.Unmarshal(b, &rv); err != nil {
			t.Fatal(err)
		}
		if rv.State == Done {
			if !rv.Recovered {
				t.Fatal("requeued job lost its recovered flag")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requeued job never finished (state %s)", rv.State)
		}
	}
	code, _ := get(t, ts.URL, "/v1/jobs/"+id+"/reports")
	if code != http.StatusOK {
		t.Fatalf("requeued job reports: %d", code)
	}
}

// TestRecoverEvictedReportsGone: a recovered done job whose reports
// are not in the cache answers 410 — the job's identity survived, the
// bytes did not.
func TestRecoverEvictedReportsGone(t *testing.T) {
	mem := iofault.NewMem()
	jnl, _ := openTestJournal(t, mem)
	probe := New(Options{})
	nreq, m, _, plan, err := normalize(Request{Experiments: []string{"table3"}, Quick: true}, probe.machines)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(nreq)
	fp := fingerprintJob(nreq, m, plan)
	id := jobID(1, fp)
	for _, r := range []journal.Record{
		{Kind: journal.KindSubmitted, JobID: id, Seq: 1, Fingerprint: fp, Request: req},
		{Kind: journal.KindRunning, JobID: id},
		{Kind: journal.KindReport, JobID: id, Index: 0},
		{Kind: journal.KindDone, JobID: id},
	} {
		if err := jnl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, info := openTestJournal(t, mem)
	// A cache with an empty directory: the previous life's reports are
	// simply not there.
	cache, err := power8.NewSuiteCache(power8.CacheOptions{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Cache: cache, Journal: jnl2})
	if sum := svc.Recover(info.Records); sum.Done != 1 {
		t.Fatalf("recovery summary %+v, want one done job", sum)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := jnl2.Close(); err != nil {
			t.Errorf("journal close: %v", err)
		}
	}()
	code, b := get(t, ts.URL, "/v1/jobs/"+id+"/reports")
	if code != http.StatusGone {
		t.Fatalf("evicted recovered reports: %d %s, want 410", code, b)
	}
}

// TestSubmitRejectedWhenJournalFails: an admission whose Submitted
// record cannot be made durable answers 503 — and the next admission
// succeeds, because the journal rotates away from the broken segment.
func TestSubmitRejectedWhenJournalFails(t *testing.T) {
	mem := iofault.NewMem()
	// Write 0 is the opening segment's magic; write 1 is the first
	// record frame. Tear it: three bytes land, then ENOSPC — the
	// partial frame marks the active segment broken.
	ffs := iofault.NewFaulty(mem, iofault.Fault{Op: iofault.OpWrite, N: 1, Kind: iofault.KindNoSpace, Arg: 3})
	jnl, _, err := journal.Open("wal", journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{Journal: jnl})
	t.Cleanup(func() {
		if err := jnl.Close(); err != nil {
			t.Errorf("journal close: %v", err)
		}
	})

	code, b := post(t, ts.URL, `{"experiments":["table3"],"quick":true}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit with broken journal: %d %s, want 503", code, b)
	}
	// healthz shows the degraded journal.
	code, b = get(t, ts.URL, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var hv healthView
	if err := json.Unmarshal(b, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Journal != "degraded" {
		t.Fatalf("healthz journal %q, want degraded", hv.Journal)
	}
	// The rejection rolled the sequence back and the journal rotated
	// away from the broken segment: the retry is j1 and succeeds.
	code, b = post(t, ts.URL, `{"experiments":["table3"],"quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after journal recovery: %d %s", code, b)
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID[:2] != "j1" {
		t.Fatalf("post-failure job ID %q, want the sequence rolled back to j1", v.ID)
	}
	_ = svc
}

// TestNewHTTPServerTimeouts pins the hardening contract: header and
// idle timeouts set, read/write timeouts deliberately unset.
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := NewHTTPServer(":0", http.NewServeMux())
	if s.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-loris clients can pin connections")
	}
	if s.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: abandoned keep-alives are never reaped")
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Error("Read/WriteTimeout set: long-polls and streams would be cut off")
	}
}
