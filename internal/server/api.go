// Package server is the serving layer of the modulo scheduler: a
// long-running HTTP compile service ("mschedd") that accepts looplang
// sources — one at a time or in batches — compiles them through the
// best-effort pipeline behind a process-wide memoizing compile cache,
// and returns schedules and kernel code as JSON.
//
// The service contract (see docs/serving.md for the full catalog):
//
//   - POST /compile        one CompileRequest  -> CompileResponse
//   - POST /compile/batch  a BatchRequest      -> BatchResponse, items in
//     input order, byte-identical for any worker count
//   - GET  /metrics        Prometheus text exposition
//   - GET  /healthz        "ok" (200), or "draining" (503) during drain
//   - /debug/pprof/...     the standard profiling endpoints
//
// Typed compilation errors map onto HTTP statuses: invalid input
// (parse errors, ErrInvalidLoop, ErrInvalidMachine) is 422, a proven
// scheduling failure (ErrNoSchedule) is 409, an exhausted budget or
// deadline is 504, and a contained internal error is 500. Admission
// control bounds the number of in-flight requests; beyond the bound a
// waiting room queues a few more, and past that the server sheds load
// with 429 and a Retry-After hint instead of queueing without bound.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Error kinds carried by ErrorResponse.Kind so clients can dispatch
// without parsing the message.
const (
	// KindBadRequest: the request body is not valid JSON or violates the
	// request schema (HTTP 400).
	KindBadRequest = "bad_request"
	// KindParse: the loop source failed to parse (HTTP 422).
	KindParse = "parse"
	// KindInvalid: the loop or machine failed validation, or the request
	// named an unknown machine/option value (HTTP 422).
	KindInvalid = "invalid"
	// KindNoSchedule: every candidate II was proven infeasible (HTTP 409).
	KindNoSchedule = "no_schedule"
	// KindBudget: the scheduling-step budget cut off the search; a higher
	// budget might still succeed (HTTP 504).
	KindBudget = "budget"
	// KindDeadline: the per-request compile deadline expired (HTTP 504).
	KindDeadline = "deadline"
	// KindInternal: a contained internal scheduler error (HTTP 500).
	KindInternal = "internal"
	// KindOverloaded: admission control shed the request; retry after the
	// Retry-After hint (HTTP 429).
	KindOverloaded = "overloaded"
	// KindDraining: the server is shutting down (HTTP 503).
	KindDraining = "draining"
	// KindNoBackends: emitted by the front proxy (cmd/mschedfront) when
	// every replica is ejected or retries are exhausted (HTTP 503).
	// Clients treat it like draining: fail over or fall back to local
	// compilation.
	KindNoBackends = "no_backends"
	// KindQuota: the tenant's job-submission token bucket is empty; retry
	// after the Retry-After hint (HTTP 429). Unlike KindOverloaded this is
	// per tenant, not whole-server.
	KindQuota = "quota"
	// KindNotFound: the named job does not exist on this instance
	// (HTTP 404).
	KindNotFound = "not_found"
)

// CompileRequest asks the service to compile one loop.
type CompileRequest struct {
	// Name is a display name for the request (a file name, typically).
	// It never reaches the compiler or the cache key; the response's Name
	// is the loop's own name from the source header.
	Name string `json:"name,omitempty"`
	// Source is the loop in the textual loop format (docs/loop-format.md).
	Source string `json:"source"`
	// Machine names the target: "cydra5" (default), "generic", "tiny".
	// Mutually exclusive with MachineSource.
	Machine string `json:"machine,omitempty"`
	// MachineSource is a full machine description in the machlang format
	// (docs/machines.md) for compiling against a custom target. The
	// server parses and validates it, then keys every cache and routing
	// layer by the machine's fingerprint — a custom machine behaves
	// exactly like a built-in with a different digest. Mutually exclusive
	// with Machine.
	MachineSource string `json:"machine_source,omitempty"`
	// Options tunes the scheduler; zero fields keep the paper defaults.
	Options *OptionsSpec `json:"options,omitempty"`
	// TimeoutMS bounds this compile in milliseconds. The server clamps it
	// to its own per-compile ceiling; 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// OptionsSpec is the JSON form of the scheduling options. Zero values
// mean "server default" (the paper's recommended configuration).
type OptionsSpec struct {
	// Budget is Options.BudgetRatio (scheduling steps per op per II).
	Budget float64 `json:"budget,omitempty"`
	// Priority: "heightr" (default), "fifo", "depth", "recfirst".
	Priority string `json:"priority,omitempty"`
	// Delays: "vliw" (default) or "conservative".
	Delays string `json:"delays,omitempty"`
	// MaxII caps the candidate II search; 0 derives a safe bound.
	MaxII int `json:"max_ii,omitempty"`
}

// CompileResponse is one successful compilation.
type CompileResponse struct {
	// Name is the loop's name from its `loop NAME` header.
	Name string `json:"name"`
	// Ops and Edges describe the parsed dependence graph (real
	// operations; all edges including the START/STOP brackets).
	Ops   int `json:"ops"`
	Edges int `json:"edges"`
	// The Section 2 lower bounds and baselines.
	ResMII         int `json:"res_mii"`
	MII            int `json:"mii"`
	NonTrivialSCCs int `json:"non_trivial_sccs"`
	ListSL         int `json:"list_sl"`
	// The achieved schedule.
	II         int   `json:"ii"`
	SL         int   `json:"sl"`
	Stages     int   `json:"stages"`
	SchedSteps int64 `json:"sched_steps"`
	// Kernel is the kernel-only code (rotating registers, stage
	// predicates) in its textual rendering.
	Kernel string `json:"kernel"`
	// Degradation reports a fallback stage having produced the schedule;
	// nil when the paper's iterative scheduler succeeded.
	Degradation *DegradationInfo `json:"degradation,omitempty"`
}

// DegradationInfo mirrors core.Degradation across the wire.
type DegradationInfo struct {
	// Stage that produced the schedule: "iterative", "slack", "acyclic".
	Stage string `json:"stage"`
	// Failures of the earlier stages, in attempt order.
	Failures []StageFailureInfo `json:"failures,omitempty"`
	// Message is the report rendered exactly as core.Degradation.String(),
	// so clients can reproduce the CLI's warning byte for byte.
	Message string `json:"message"`
}

// StageFailureInfo is one failed stage inside a DegradationInfo.
type StageFailureInfo struct {
	Stage string `json:"stage"`
	Error string `json:"error"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
	// RetryAfterSec accompanies KindOverloaded: the server's estimate of
	// when capacity will free up (also sent as the Retry-After header).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// BatchRequest compiles several loops in one request. The response
// preserves input order regardless of how the compiles are scheduled
// across workers.
type BatchRequest struct {
	Loops []CompileRequest `json:"loops"`
}

// BatchItem is one loop's outcome inside a BatchResponse: exactly one of
// Result and Error is set, and Status is the HTTP status the same
// request would have received on /compile.
type BatchItem struct {
	Status int              `json:"status"`
	Result *CompileResponse `json:"result,omitempty"`
	Error  *ErrorResponse   `json:"error,omitempty"`
}

// BatchResponse carries the per-loop outcomes in input order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// JobSubmitRequest asks for one asynchronous compile (POST /jobs).
type JobSubmitRequest struct {
	// Tenant names the submitter for quota and fair-share accounting;
	// empty maps to the shared "anon" tenant.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMS bounds the whole job — queueing included — in
	// milliseconds from submission. A job not finished by then reaches the
	// "expired" state with a 504-equivalent outcome. 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Request is the compile to run, exactly as /compile would take it.
	Request CompileRequest `json:"request"`
}

// JobStatusResponse is the body of POST /jobs (202 new, 200 duplicate)
// and GET /jobs/{id}[/wait].
type JobStatusResponse struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// State: "queued", "running", "done", "failed", or "expired".
	State string `json:"state"`
	// Position is the job's 1-based place in its tenant's queue while
	// queued.
	Position int `json:"position,omitempty"`
	// Outcome is set once the job is terminal: a BatchItem, byte-for-byte
	// what the same request would have produced inside a /compile/batch
	// response (its result field is the /compile success body, its error
	// field the /compile error body).
	Outcome json.RawMessage `json:"outcome,omitempty"`
}

// RenderText writes the response in exactly the format `msched` prints
// for a successful compile, so serving and the CLI are diffable byte for
// byte (the CI smoke test does exactly that).
func (r *CompileResponse) RenderText(w io.Writer) {
	fmt.Fprintf(w, "loop %s: %d operations, %d edges\n", r.Name, r.Ops, r.Edges)
	fmt.Fprintf(w, "ResMII=%d MII=%d non-trivial SCCs=%d acyclic-list SL=%d\n",
		r.ResMII, r.MII, r.NonTrivialSCCs, r.ListSL)
	fmt.Fprintf(w, "II=%d (DeltaII=%d) SL=%d stages=%d scheduling steps=%d\n\n",
		r.II, r.II-r.MII, r.SL, r.Stages, r.SchedSteps)
	io.WriteString(w, r.Kernel)
}

// Text returns RenderText as a string.
func (r *CompileResponse) Text() string {
	var b strings.Builder
	r.RenderText(&b)
	return b.String()
}
