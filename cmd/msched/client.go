package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"modsched/internal/server"
)

// shedWaitCap and shedTotalWait bound the client's patience with a
// shedding (429) server: each Retry-After hint is honored but capped at
// shedWaitCap per wait, and once shedTotalWait has been slept across
// retries the last refusal is final. Variables, not constants, so the
// stub-server tests can shrink them.
var (
	shedWaitCap   = 2 * time.Second
	shedTotalWait = 8 * time.Second
)

// errUnavailable classifies failures that mean "the serving tier is
// gone" — connection failures and the tier's own last-resort refusals
// (draining, no_backends). These trigger the local-compilation
// fallback; everything else (bad requests, overload after the retry
// budget) stays an error, because recompiling locally would not help or
// would hide a real problem.
type errUnavailable struct{ reason string }

func (e *errUnavailable) Error() string { return e.reason }

// fallbackKinds are the wire error kinds that mean the tier cannot take
// work at all right now.
func fallbackKind(kind string) bool {
	return kind == server.KindDraining || kind == server.KindNoBackends
}

// runServed compiles the inputs against a running mschedd (or an
// mschedfront fleet) instead of in-process: one input posts to
// /compile, several post as one /compile/batch request. The printed
// output is byte-identical to the local path for every outcome the
// server can express — the CI smoke test diffs the two — and error
// kinds map back onto the same exit codes local compilation uses.
//
// Two robustness behaviors sit between the POST and the rendering:
// 429 responses are retried honoring Retry-After (bounded by
// shedTotalWait, then surfaced as an error), and an unreachable or
// fully-drained tier falls back to localOne with a one-line warning —
// mirroring the scheduler's own best-effort degradation chain.
func runServed(addr string, srcs []input, cf clientFlags, localOne func(input) int, stdout, stderr io.Writer) int {
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "msched: "+format+"\n", args...)
		return code
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	// The HTTP client deadline covers transport only. Compile deadlines
	// travel inside the request (timeout_ms) so the server can enforce
	// them per loop; the transport allowance on top is generous because a
	// queued request may wait out the server's waiting room first.
	httpTimeout := 5 * time.Minute
	client := &http.Client{Timeout: httpTimeout}

	fallBack := func(reason string) int {
		fmt.Fprintf(stderr, "msched: warning: %s; compiling locally\n", reason)
		for i, in := range srcs {
			if len(srcs) > 1 {
				if i > 0 {
					fmt.Fprintln(stdout)
				}
				fmt.Fprintf(stdout, "== %s ==\n", in.name)
			}
			if code := localOne(in); code != exitOK {
				return code
			}
		}
		return exitOK
	}

	items, err := postCompile(client, base, srcs, cf)
	if err != nil {
		var unavail *errUnavailable
		if errors.As(err, &unavail) {
			return fallBack(unavail.reason)
		}
		return fail(exitOther, "%v", err)
	}
	// A 200 batch can still carry per-item tier refusals (a front with a
	// partially-dead fleet). Any such item falls the whole invocation
	// back — mixing served and local output would be confusing, and the
	// outputs are byte-identical anyway.
	for _, item := range items {
		if item.Error != nil && fallbackKind(item.Error.Kind) {
			return fallBack(fmt.Sprintf("serving tier refused (%s): %s", item.Error.Kind, item.Error.Error))
		}
	}

	for i, item := range items {
		if len(srcs) > 1 {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			fmt.Fprintf(stdout, "== %s ==\n", srcs[i].name)
		}
		if code := renderItem(item, cf, stdout, stderr); code != exitOK {
			return code
		}
	}
	return exitOK
}

// clientFlags carries the flag subset that travels to the server.
// machine and machineSource are mutually exclusive: a built-in machine
// travels by name, a machlang file travels as its full source.
type clientFlags struct {
	machine       string
	machineSource string
	budget        float64
	priority      string
	delays        string
	timeout       time.Duration
	besteffort    bool
}

func (cf clientFlags) request(in input) server.CompileRequest {
	req := server.CompileRequest{
		Name:          in.name,
		Source:        in.src,
		Machine:       cf.machine,
		MachineSource: cf.machineSource,
		Options: &server.OptionsSpec{
			Budget:   cf.budget,
			Priority: cf.priority,
			Delays:   cf.delays,
		},
	}
	if cf.timeout > 0 {
		req.TimeoutMS = cf.timeout.Milliseconds()
	}
	return req
}

// postCompile sends the inputs and returns one BatchItem per input, in
// input order, whichever endpoint served them. Transport failures and
// whole-request tier refusals come back as *errUnavailable so the
// caller can fall back to local compilation.
func postCompile(client *http.Client, base string, srcs []input, cf clientFlags) ([]server.BatchItem, error) {
	if len(srcs) == 1 {
		status, body, err := postJSON(client, base+"/compile", cf.request(srcs[0]))
		if err != nil {
			return nil, err
		}
		item := server.BatchItem{Status: status}
		if status == http.StatusOK {
			item.Result = new(server.CompileResponse)
			if err := json.Unmarshal(body, item.Result); err != nil {
				return nil, fmt.Errorf("malformed response from %s: %v", base, err)
			}
		} else {
			item.Error = new(server.ErrorResponse)
			if err := json.Unmarshal(body, item.Error); err != nil {
				return nil, fmt.Errorf("server returned HTTP %d with an unreadable body", status)
			}
			if fallbackKind(item.Error.Kind) {
				return nil, &errUnavailable{reason: fmt.Sprintf("serving tier refused (%s): %s", item.Error.Kind, item.Error.Error)}
			}
		}
		return []server.BatchItem{item}, nil
	}

	breq := server.BatchRequest{Loops: make([]server.CompileRequest, len(srcs))}
	for i, in := range srcs {
		breq.Loops[i] = cf.request(in)
	}
	status, body, err := postJSON(client, base+"/compile/batch", breq)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		var eresp server.ErrorResponse
		if json.Unmarshal(body, &eresp) == nil && eresp.Error != "" {
			if fallbackKind(eresp.Kind) {
				return nil, &errUnavailable{reason: fmt.Sprintf("serving tier refused (%s): %s", eresp.Kind, eresp.Error)}
			}
			return nil, fmt.Errorf("batch rejected (%s): %s", eresp.Kind, eresp.Error)
		}
		return nil, fmt.Errorf("batch rejected with HTTP %d", status)
	}
	var bresp server.BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		return nil, fmt.Errorf("malformed batch response from %s: %v", base, err)
	}
	if len(bresp.Results) != len(srcs) {
		return nil, fmt.Errorf("batch response carries %d results for %d inputs", len(bresp.Results), len(srcs))
	}
	return bresp.Results, nil
}

// postJSON is one POST with the 429 retry loop around it: a shedding
// server's Retry-After hints are honored (each wait capped at
// shedWaitCap) until shedTotalWait has been slept in total — then the
// last 429 is returned as-is and the caller surfaces it. Transport
// failures wrap into *errUnavailable.
func postJSON(client *http.Client, url string, v any) (int, []byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	var waited time.Duration
	for {
		resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			return 0, nil, &errUnavailable{reason: fmt.Sprintf("cannot reach server: %v", err)}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, &errUnavailable{reason: fmt.Sprintf("connection to server lost: %v", err)}
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, body, nil
		}
		wait := time.Second
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
			wait = time.Duration(sec) * time.Second
		}
		if wait > shedWaitCap {
			wait = shedWaitCap
		}
		if wait <= 0 {
			// "Retry-After: 0" must still make progress against the budget,
			// or an always-shedding server would spin us forever.
			wait = 10 * time.Millisecond
		}
		if waited+wait > shedTotalWait {
			return resp.StatusCode, body, nil
		}
		time.Sleep(wait)
		waited += wait
	}
}

// renderItem prints one loop's outcome exactly as the local pipeline
// would and returns its exit code.
func renderItem(item server.BatchItem, cf clientFlags, stdout, stderr io.Writer) int {
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "msched: "+format+"\n", args...)
		return code
	}
	if item.Error != nil {
		return fail(kindExit(item.Error.Kind), "%s", item.Error.Error)
	}
	r := item.Result
	if r.Degradation != nil {
		if !cf.besteffort {
			// The server always compiles best-effort (its cache admits one
			// entry point), but without -besteffort the contract is
			// fail-don't-degrade: surface the first stage failure as the
			// local pipeline would have.
			if fs := r.Degradation.Failures; len(fs) > 0 {
				return fail(exitNoSched, "%s", fs[0].Error)
			}
			return fail(exitNoSched, "schedule degraded to %s stage", r.Degradation.Stage)
		}
		// Same channel and wording as the local -besteffort path.
		fmt.Fprintf(stderr, "msched: warning: %s\n", r.Degradation.Message)
	}
	r.RenderText(stdout)
	return exitOK
}

// kindExit maps a wire error kind onto the CLI's exit codes, mirroring
// schedExit's classification of the underlying sentinels.
func kindExit(kind string) int {
	switch kind {
	case server.KindParse:
		return exitParse
	case server.KindInvalid, server.KindBadRequest:
		return exitUsage
	case server.KindNoSchedule, server.KindBudget, server.KindDeadline:
		return exitNoSched
	case server.KindInternal:
		return exitInternal
	default: // overloaded, draining, transport oddities
		return exitOther
	}
}
