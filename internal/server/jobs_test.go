package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modsched/internal/jobs"
)

// newJobsServer builds a Server with the async jobs API mounted.
func newJobsServer(t *testing.T, cfg Config, jcfg JobsConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if jcfg.Dir == "" {
		jcfg.Dir = t.TempDir()
	}
	if err := s.EnableJobs(jcfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.CloseJobs(ctx)
	})
	return s, ts
}

func getJSONBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// daxpyVariant produces structurally distinct (hence distinct-job-id)
// cheap loops by varying one address stride immediate.
func daxpyVariant(i int) string {
	return strings.Replace(daxpySource, "#8", fmt.Sprintf("#%d", 8+16*i), 1)
}

// submitJob posts one job and returns the decoded status response.
func submitJob(t *testing.T, url string, req JobSubmitRequest) (int, JobStatusResponse, http.Header) {
	t.Helper()
	status, body, hdr := postJSONBody(t, url+"/jobs", req)
	var st JobStatusResponse
	if status == http.StatusAccepted || status == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("submit response: %v: %s", err, body)
		}
	}
	return status, st, hdr
}

// waitJob long-polls until the job is terminal (looping over wait-cap
// returns if needed).
func waitJob(t *testing.T, url, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, body := getJSONBody(t, url+"/jobs/"+id+"/wait")
		if status != http.StatusOK {
			t.Fatalf("wait status %d: %s", status, body)
		}
		var st JobStatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if jobs.Terminal(st.State) {
			return st
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatusResponse{}
}

// outcomeParts splits a job outcome into its status and raw result /
// error bodies without re-encoding, so byte comparisons are honest.
func outcomeParts(t *testing.T, outcome json.RawMessage) (int, json.RawMessage, json.RawMessage) {
	t.Helper()
	var probe struct {
		Status int             `json:"status"`
		Result json.RawMessage `json:"result"`
		Error  json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(outcome, &probe); err != nil {
		t.Fatalf("outcome decode: %v: %s", err, outcome)
	}
	return probe.Status, probe.Result, probe.Error
}

// TestJobsByteIdenticalToCompile is the core contract: a completed
// job's outcome carries byte-for-byte the body the synchronous /compile
// endpoint returns for the same request — success and error cases both.
func TestJobsByteIdenticalToCompile(t *testing.T) {
	_, ts := newJobsServer(t, Config{}, JobsConfig{Workers: 2})

	cases := []struct {
		name      string
		req       CompileRequest
		wantState string
	}{
		{"ok", CompileRequest{Source: daxpySource}, jobs.StateDone},
		{"parse error", CompileRequest{Source: "loop x\nnonsense\n"}, jobs.StateFailed},
		{"impossible", CompileRequest{Source: impossibleSource}, jobs.StateFailed},
		{"unknown machine", CompileRequest{Source: daxpySource, Machine: "pdp11"}, jobs.StateFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, st, _ := submitJob(t, ts.URL, JobSubmitRequest{Tenant: "t1", Request: tc.req})
			if status != http.StatusAccepted {
				t.Fatalf("submit status %d", status)
			}
			fin := waitJob(t, ts.URL, st.ID)
			if fin.State != tc.wantState {
				t.Fatalf("state %q, want %q (outcome %s)", fin.State, tc.wantState, fin.Outcome)
			}
			jobStatus, jobResult, jobErr := outcomeParts(t, fin.Outcome)

			syncStatus, syncBody, _ := postJSONBody(t, ts.URL+"/compile", tc.req)
			syncBody = bytes.TrimSuffix(syncBody, []byte("\n"))
			if jobStatus != syncStatus {
				t.Fatalf("job outcome status %d, /compile %d", jobStatus, syncStatus)
			}
			if tc.wantState == jobs.StateDone {
				if !bytes.Equal(jobResult, syncBody) {
					t.Fatalf("result bytes differ:\njob:  %s\nsync: %s", jobResult, syncBody)
				}
			} else {
				if !bytes.Equal(jobErr, syncBody) {
					t.Fatalf("error bytes differ:\njob:  %s\nsync: %s", jobErr, syncBody)
				}
			}
		})
	}
}

// TestJobsIdempotentSubmit: resubmitting the same request is answered
// by the same job (200, same id, eventually the same outcome), and only
// one journal append happens.
func TestJobsIdempotentSubmit(t *testing.T) {
	s, ts := newJobsServer(t, Config{}, JobsConfig{Workers: 1})
	req := JobSubmitRequest{Tenant: "t1", Request: CompileRequest{Source: daxpySource}}

	status1, st1, _ := submitJob(t, ts.URL, req)
	if status1 != http.StatusAccepted {
		t.Fatalf("first submit: %d", status1)
	}
	status2, st2, _ := submitJob(t, ts.URL, req)
	if status2 != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("resubmit: status %d id %s (want 200, id %s)", status2, st2.ID, st1.ID)
	}
	// A different tenant gets a different job for the same source.
	_, st3, _ := submitJob(t, ts.URL, JobSubmitRequest{Tenant: "t2", Request: req.Request})
	if st3.ID == st1.ID {
		t.Fatal("tenants share a job id")
	}
	fin := waitJob(t, ts.URL, st1.ID)
	status4, st4, _ := submitJob(t, ts.URL, req)
	if status4 != http.StatusOK || !bytes.Equal(st4.Outcome, fin.Outcome) {
		t.Fatalf("post-completion resubmit: status %d, outcome drift", status4)
	}
	if c := s.JobsCounters(); c.Deduped != 2 {
		t.Fatalf("Deduped = %d, want 2", c.Deduped)
	}
	if js := s.JobsJournalStats(); js.Appends != 2 { // t1's job + t2's job
		t.Fatalf("journal appends = %d, want 2", js.Appends)
	}
}

// TestJobsQuota429: a rate-limited tenant's over-quota submission gets
// 429 kind "quota" with a Retry-After hint; other tenants are
// unaffected.
func TestJobsQuota429(t *testing.T) {
	_, ts := newJobsServer(t, Config{}, JobsConfig{
		Workers: 1,
		Tenants: map[string]jobs.TenantConfig{"limited": {Weight: 1, Rate: 0.001, Burst: 1}},
	})
	status, _, _ := submitJob(t, ts.URL, JobSubmitRequest{Tenant: "limited", Request: CompileRequest{Source: daxpyVariant(1)}})
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	status, body, hdr := postJSONBody(t, ts.URL+"/jobs", JobSubmitRequest{Tenant: "limited", Request: CompileRequest{Source: daxpyVariant(2)}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, body %s", status, body)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Kind != KindQuota || hdr.Get("Retry-After") == "" || eresp.RetryAfterSec < 1 {
		t.Fatalf("quota refusal: kind %q, Retry-After %q, retry_after_sec %d", eresp.Kind, hdr.Get("Retry-After"), eresp.RetryAfterSec)
	}
	if status, _, _ := submitJob(t, ts.URL, JobSubmitRequest{Tenant: "other", Request: CompileRequest{Source: daxpyVariant(3)}}); status != http.StatusAccepted {
		t.Fatalf("unlimited tenant: %d", status)
	}
}

// TestJobsDeadlineExpiry: a queued job whose deadline passes before a
// worker frees up reaches "expired" with the 504 deadline outcome.
func TestJobsDeadlineExpiry(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newJobsServer(t, Config{}, JobsConfig{Workers: 1})
	s.testCompileHook = func(*CompileRequest) { <-gate }
	defer close(gate)

	// Occupy the lone worker.
	if status, _, _ := submitJob(t, ts.URL, JobSubmitRequest{Request: CompileRequest{Source: daxpyVariant(1)}}); status != http.StatusAccepted {
		t.Fatal("blocker not accepted")
	}
	_, st, _ := submitJob(t, ts.URL, JobSubmitRequest{Request: CompileRequest{Source: daxpyVariant(2)}, DeadlineMS: 1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := getJSONBody(t, ts.URL+"/jobs/"+st.ID)
		if status != http.StatusOK {
			t.Fatalf("get: %d %s", status, body)
		}
		var got JobStatusResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.State == jobs.StateExpired {
			jobStatus, _, jobErr := outcomeParts(t, got.Outcome)
			var eresp ErrorResponse
			if err := json.Unmarshal(jobErr, &eresp); err != nil {
				t.Fatal(err)
			}
			if jobStatus != http.StatusGatewayTimeout || eresp.Kind != KindDeadline {
				t.Fatalf("expired outcome: status %d kind %q", jobStatus, eresp.Kind)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never expired (state %q)", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsNotFoundAndDisabled pins the 404 surface.
func TestJobsNotFoundAndDisabled(t *testing.T) {
	_, ts := newJobsServer(t, Config{}, JobsConfig{})
	bogus := strings.Repeat("ab", 32)
	for _, path := range []string{"/jobs/" + bogus, "/jobs/" + bogus + "/wait"} {
		status, body := getJSONBody(t, ts.URL+path)
		var eresp ErrorResponse
		if err := json.Unmarshal(body, &eresp); err != nil {
			t.Fatal(err)
		}
		if status != http.StatusNotFound || eresp.Kind != KindNotFound {
			t.Fatalf("%s: %d %q", path, status, eresp.Kind)
		}
	}
	// A server without EnableJobs refuses the whole surface with 404.
	_, plain := newTestServer(t, Config{})
	status, body, _ := postJSONBody(t, plain.URL+"/jobs", JobSubmitRequest{Request: CompileRequest{Source: daxpySource}})
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNotFound || eresp.Kind != KindNotFound {
		t.Fatalf("disabled submit: %d %q", status, eresp.Kind)
	}
}

// TestJobsDrainRefusesSubmissions: during drain POST /jobs is 503
// draining with a Retry-After, while GET stays readable.
func TestJobsDrainRefusesSubmissions(t *testing.T) {
	s, ts := newJobsServer(t, Config{}, JobsConfig{Workers: 1})
	_, st, _ := submitJob(t, ts.URL, JobSubmitRequest{Request: CompileRequest{Source: daxpySource}})
	waitJob(t, ts.URL, st.ID)

	s.StartDrain()
	status, body, hdr := postJSONBody(t, ts.URL+"/jobs", JobSubmitRequest{Request: CompileRequest{Source: daxpyVariant(1)}})
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || eresp.Kind != KindDraining || hdr.Get("Retry-After") == "" {
		t.Fatalf("drain submit: %d %q Retry-After %q", status, eresp.Kind, hdr.Get("Retry-After"))
	}
	// Polls still answer during drain.
	if status, _ := getJSONBody(t, ts.URL+"/jobs/"+st.ID); status != http.StatusOK {
		t.Fatalf("poll during drain: %d", status)
	}
	// The drain metrics dump carries the jobs gauges (the satellite-6
	// flush contract).
	text := s.MetricsText()
	for _, want := range []string{"mschedd_jobs_submitted_total 1", "mschedd_jobs_completed_total 1", "mschedd_jobs_queued 0", "mschedd_jobs_journal_records 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("drain metrics dump lacks %q", want)
		}
	}
}

// TestJobsCrashRecoveryChaos is the in-process half of the chaos
// acceptance criterion: kill the job subsystem mid-queue (simulated
// SIGKILL: in-flight completions dropped, journal untouched), restart
// over the same journal, and prove zero journaled jobs are lost and
// every outcome is byte-identical to a local compile on a fresh
// process.
func TestJobsCrashRecoveryChaos(t *testing.T) {
	dir := t.TempDir()

	srv1 := New(Config{})
	if err := srv1.EnableJobs(JobsConfig{Dir: dir, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	// A mixed population: successes, parse failures, proven-infeasible.
	type jobCase struct {
		id  string
		req CompileRequest
	}
	var cases []jobCase
	for i := 0; i < 24; i++ {
		var req CompileRequest
		switch i % 4 {
		case 0, 1:
			req = CompileRequest{Source: daxpyVariant(i)}
		case 2:
			req = CompileRequest{Source: fmt.Sprintf("loop bad%d\nnonsense\n", i)}
		case 3:
			// Pad with i independent ops: the loop name is not part of the
			// canonical structure, so variants must differ structurally to
			// get distinct job ids.
			var b strings.Builder
			fmt.Fprintf(&b, "loop impossible%d\n", i)
			for k := 0; k <= i; k++ {
				fmt.Fprintf(&b, "pad%d = add p\n", k)
			}
			b.WriteString("a: x = add p\nb: y = add x\nbrtop\n!mem b -> a dist 0\n")
			req = CompileRequest{Source: b.String()}
		}
		tenant := fmt.Sprintf("tenant%d", i%3)
		status, st, _ := submitJob(t, ts1.URL, JobSubmitRequest{Tenant: tenant, Request: req})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, status)
		}
		cases = append(cases, jobCase{id: st.ID, req: req})
	}
	// Let a few finish, then die mid-queue.
	time.Sleep(5 * time.Millisecond)
	ts1.Close()
	srv1.jobs.Kill()

	// "Restart": a fresh server over the same journal directory.
	srv2 := New(Config{})
	if err := srv2.EnableJobs(JobsConfig{Dir: dir, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.CloseJobs(ctx)
	})
	c := srv2.JobsCounters()
	if c.Recovered != int64(len(cases)) {
		t.Fatalf("recovered %d of %d journaled jobs", c.Recovered, len(cases))
	}
	if js := srv2.JobsJournalStats(); js.Quarantined != 0 {
		t.Fatalf("%d journal files quarantined after clean kill", js.Quarantined)
	}

	// Every job must complete, and every outcome must match a reference
	// compile on a third, uninvolved process (byte-identical contract).
	oracle := New(Config{})
	for i, jc := range cases {
		fin := waitJob(t, ts2.URL, jc.id)
		if !jobs.Terminal(fin.State) {
			t.Fatalf("job %d not terminal after recovery: %q", i, fin.State)
		}
		want, err := json.Marshal(oracle.CompileLocal(context.Background(), &jc.req))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fin.Outcome, want) {
			t.Fatalf("job %d outcome diverged after crash recovery:\ngot:  %s\nwant: %s", i, fin.Outcome, want)
		}
	}
}

// TestJobsFairness10to1 is the fairness acceptance criterion in-process:
// a 10:1 bulk-vs-interactive backlog dispatched by weight must
// interleave so the interactive tenant's jobs are never stuck behind
// the bulk queue — asserted on dispatch sequence numbers, which are
// deterministic, rather than wall-clock latency.
func TestJobsFairness10to1(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newJobsServer(t, Config{}, JobsConfig{
		Workers: 1,
		Tenants: map[string]jobs.TenantConfig{
			"bulk":        {Weight: 1},
			"interactive": {Weight: 10},
		},
	})
	s.testCompileHook = func(*CompileRequest) {
		select {
		case <-gate:
		case <-time.After(30 * time.Second):
		}
	}

	// 10:1 job mix: 100 bulk, 10 interactive, bulk submitted first so the
	// backlog is maximally adversarial. The gate holds the lone worker on
	// its first pick until everything is queued.
	var bulkIDs, intIDs []string
	for i := 0; i < 100; i++ {
		status, st, _ := submitJob(t, ts.URL, JobSubmitRequest{Tenant: "bulk", Request: CompileRequest{Source: daxpyVariant(i)}})
		if status != http.StatusAccepted {
			t.Fatalf("bulk %d: %d", i, status)
		}
		bulkIDs = append(bulkIDs, st.ID)
	}
	for i := 0; i < 10; i++ {
		status, st, _ := submitJob(t, ts.URL, JobSubmitRequest{Tenant: "interactive", Request: CompileRequest{Source: daxpyVariant(200 + i)}})
		if status != http.StatusAccepted {
			t.Fatalf("interactive %d: %d", i, status)
		}
		intIDs = append(intIDs, st.ID)
	}
	close(gate)
	for _, id := range append(append([]string(nil), bulkIDs...), intIDs...) {
		waitJob(t, ts.URL, id)
	}

	var maxInt int64
	for _, id := range intIDs {
		if seq := s.jobs.DispatchSeq(id); seq > maxInt {
			maxInt = seq
		}
	}
	total := int64(len(bulkIDs) + len(intIDs))
	// With weight 10 vs 1, the 10 interactive jobs should all dispatch
	// within the first ~13 slots (one bulk pre-gate pick + ties). Allow
	// slack but pin the order of magnitude: all interactive work done
	// inside the first fifth of the dispatch sequence, i.e. its
	// completion P99 is bounded by the weights, not the bulk backlog.
	if maxInt == 0 || maxInt > total/5 {
		t.Fatalf("last interactive dispatch at seq %d of %d — bulk starved interactive", maxInt, total)
	}
	if d := s.jobs.TenantDispatched("interactive"); d != 10 {
		t.Fatalf("interactive dispatched %d, want 10", d)
	}
}

// TestJournaledWorkersFieldStillRuns: a job journaled by a build whose
// options carried a "workers" field must still run after a restart on
// a build without it. The journal replays payloads through the lenient
// decoder, so the retired field is ignored rather than failing the job.
func TestJournaledWorkersFieldStillRuns(t *testing.T) {
	dir := t.TempDir()
	j, _, err := jobs.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := CompileRequest{Source: daxpySource}
	id := JobID("", &req)
	src, err := json.Marshal(daxpySource)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"source":` + string(src) + `,"options":{"workers":4}}`)
	if err := j.Append(&jobs.Record{ID: id, Tenant: jobs.NormalizeTenant(""), Sub: 1, State: jobs.StateQueued, Payload: payload}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	if err := s.EnableJobs(JobsConfig{Dir: dir, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.CloseJobs(ctx)
	})
	if c := s.JobsCounters(); c.Recovered != 1 {
		t.Fatalf("recovered %d journaled jobs, want 1", c.Recovered)
	}
	fin := waitJob(t, ts.URL, id)
	if fin.State != jobs.StateDone {
		t.Fatalf("job state = %q, outcome %s; want done", fin.State, fin.Outcome)
	}
	want, err := json.Marshal(New(Config{}).CompileLocal(context.Background(), &req))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fin.Outcome, want) {
		t.Errorf("outcome differs from a compile without the field:\ngot:  %s\nwant: %s", fin.Outcome, want)
	}
}
