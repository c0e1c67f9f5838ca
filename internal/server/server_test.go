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
	"sync"
	"testing"
	"time"
)

const daxpySource = `
loop daxpy
profile 5 10000

xi = aadd xi@1, #8
x  = load xi
yi = aadd yi@1, #8
y  = load yi
t1 = fmul a, x
t2 = fadd y, t1
si = aadd si@1, #8
st: store si, t2
brtop
`

// impossibleSource carries a zero-distance dependence cycle: the bound
// computation proves no II can satisfy it.
const impossibleSource = `
loop impossible
a: x = add p
b: y = add x
brtop
!mem b -> a dist 0
`

// chainSource builds a serial fadd chain of n operations — compile cost
// grows superlinearly with n, which the deadline test exploits.
func chainSource(n int) string {
	var b strings.Builder
	b.WriteString("loop chain\n")
	b.WriteString("x0 = fadd a, a\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "x%d = fadd x%d, a\n", i, i-1)
	}
	b.WriteString("brtop\n")
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSONBody(t *testing.T, url string, v any) (int, []byte, http.Header) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestCompileSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := postJSONBody(t, ts.URL+"/compile", CompileRequest{Source: daxpySource})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body: %s", status, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "daxpy" {
		t.Errorf("Name = %q, want daxpy", resp.Name)
	}
	if resp.II < resp.MII || resp.MII < 1 {
		t.Errorf("II = %d, MII = %d: want II >= MII >= 1", resp.II, resp.MII)
	}
	if resp.Kernel == "" {
		t.Error("empty kernel")
	}
	text := resp.Text()
	for _, want := range []string{"loop daxpy:", "ResMII=", "II=", "DeltaII="} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered text lacks %q:\n%s", want, text)
		}
	}
}

// TestErrorMapping pins the typed-error -> HTTP status contract of the
// serving layer.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    CompileRequest
		status int
		kind   string
	}{
		{"parse", CompileRequest{Source: "loop x\nnonsense\n"}, 422, KindParse},
		{"unknown machine", CompileRequest{Source: daxpySource, Machine: "pdp11"}, 422, KindInvalid},
		{"bad priority", CompileRequest{Source: daxpySource, Options: &OptionsSpec{Priority: "zorch"}}, 422, KindInvalid},
		{"negative budget", CompileRequest{Source: daxpySource, Options: &OptionsSpec{Budget: -1}}, 422, KindInvalid},
		{"no schedule", CompileRequest{Source: impossibleSource}, 409, KindNoSchedule},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := postJSONBody(t, ts.URL+"/compile", tc.req)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body: %s)", status, tc.status, body)
			}
			var eresp ErrorResponse
			if err := json.Unmarshal(body, &eresp); err != nil {
				t.Fatal(err)
			}
			if eresp.Kind != tc.kind {
				t.Errorf("kind = %q, want %q (error: %s)", eresp.Kind, tc.kind, eresp.Error)
			}
		})
	}
}

// TestDeadlineMapsTo504: an expired compile deadline classifies as
// KindDeadline/504. Driven through compileItem with a pre-canceled
// context — wall-clock deadlines cannot fire deterministically in a
// test, but the classification path is identical.
func TestDeadlineMapsTo504(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	item := s.compileItem(ctx, &CompileRequest{Source: daxpySource})
	if item.Status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (item: %+v)", item.Status, item)
	}
	if item.Error == nil || item.Error.Kind != KindDeadline {
		t.Errorf("error = %+v, want kind %q", item.Error, KindDeadline)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})

	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile status = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400 (%s)", resp.StatusCode, body)
	}

	status, body, _ := postJSONBody(t, ts.URL+"/compile/batch", BatchRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400 (%s)", status, body)
	}
	status, body, _ = postJSONBody(t, ts.URL+"/compile/batch", BatchRequest{
		Loops: make([]CompileRequest, 3),
	})
	if status != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400 (%s)", status, body)
	}
}

// TestBatchDeterminism: the batch response must be byte-identical for
// any worker count, including with failing items mixed in.
func TestBatchDeterminism(t *testing.T) {
	req := BatchRequest{Loops: []CompileRequest{
		{Source: daxpySource},
		{Source: "loop x\nnonsense\n"},
		{Source: daxpySource, Machine: "tiny"},
		{Source: impossibleSource},
		{Source: daxpySource, Options: &OptionsSpec{Priority: "fifo"}},
		{Source: daxpySource},
	}}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		_, ts := newTestServer(t, Config{BatchWorkers: workers})
		status, body, _ := postJSONBody(t, ts.URL+"/compile/batch", req)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status = %d (%s)", workers, status, body)
		}
		if want == nil {
			want = body
			var bresp BatchResponse
			if err := json.Unmarshal(body, &bresp); err != nil {
				t.Fatal(err)
			}
			if len(bresp.Results) != len(req.Loops) {
				t.Fatalf("got %d results for %d loops", len(bresp.Results), len(req.Loops))
			}
			for i, wantStatus := range []int{200, 422, 200, 409, 200, 200} {
				if bresp.Results[i].Status != wantStatus {
					t.Errorf("item %d status = %d, want %d", i, bresp.Results[i].Status, wantStatus)
				}
			}
		} else if !bytes.Equal(body, want) {
			t.Errorf("workers=%d: batch response differs from workers=1", workers)
		}
	}
}

// TestAdmissionShed: with one slot and a one-deep waiting room, a third
// concurrent request is shed with 429 and a Retry-After hint.
func TestAdmissionShed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 5 * time.Second})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testCompileHook = func(*CompileRequest) {
		entered <- struct{}{}
		<-hold
	}

	var wg sync.WaitGroup
	results := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _ := postJSONBody(t, ts.URL+"/compile", CompileRequest{Source: daxpySource})
			results[i] = status
		}(i)
		if i == 0 {
			// Make sure the first request holds the slot before the second
			// request queues behind it.
			<-entered
		} else {
			waitFor(t, func() bool { return s.adm.queued() == 1 })
		}
	}

	status, body, hdr := postJSONBody(t, ts.URL+"/compile", CompileRequest{Source: daxpySource})
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429 (%s)", status, body)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Kind != KindOverloaded {
		t.Errorf("kind = %q, want %q", eresp.Kind, KindOverloaded)
	}
	if hdr.Get("Retry-After") == "" || eresp.RetryAfterSec < 1 {
		t.Errorf("Retry-After hint missing: header=%q body=%d", hdr.Get("Retry-After"), eresp.RetryAfterSec)
	}

	close(hold)
	wg.Wait()
	for i, status := range results {
		if status != http.StatusOK {
			t.Errorf("held request %d finished with %d, want 200", i, status)
		}
	}
}

// TestDrainZeroDrops: requests admitted before the drain complete
// normally; requests arriving after it are refused with 503 "draining".
func TestDrainZeroDrops(t *testing.T) {
	const inFlight = 4
	s, ts := newTestServer(t, Config{MaxInFlight: inFlight})
	hold := make(chan struct{})
	entered := make(chan struct{}, inFlight)
	s.testCompileHook = func(*CompileRequest) {
		entered <- struct{}{}
		<-hold
	}

	var wg sync.WaitGroup
	results := make([]int, inFlight)
	bodies := make([][]byte, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], bodies[i], _ = postJSONBody(t, ts.URL+"/compile", CompileRequest{Source: daxpySource})
		}(i)
	}
	for i := 0; i < inFlight; i++ {
		<-entered
	}

	s.StartDrain()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz status = %d, want 503", resp.StatusCode)
	}
	status, body, _ := postJSONBody(t, ts.URL+"/compile", CompileRequest{Source: daxpySource})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain compile status = %d, want 503 (%s)", status, body)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Kind != KindDraining {
		t.Errorf("kind = %q, want %q", eresp.Kind, KindDraining)
	}

	close(hold)
	wg.Wait()
	for i := range results {
		if results[i] != http.StatusOK {
			t.Errorf("in-flight request %d dropped: status = %d (%s)", i, results[i], bodies[i])
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetiredWorkersFieldRejected: options.workers is no longer part of
// the wire format, so a /compile body carrying it is a 400 bad_request
// that names the field, not a silently ignored knob.
func TestRetiredWorkersFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := postJSONBody(t, ts.URL+"/compile", map[string]any{
		"source":  daxpySource,
		"options": map[string]any{"workers": 2},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != KindBadRequest || !strings.Contains(er.Error, `"workers"`) {
		t.Errorf("error = %+v, want kind %q naming \"workers\"", er, KindBadRequest)
	}
}
