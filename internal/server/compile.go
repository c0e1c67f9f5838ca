package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"modsched"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// classify maps a compilation error onto the wire kind and HTTP status.
// Precedence mirrors the sentinels' semantics: invalid input beats
// everything (no retry can help), then deadline and budget (a retry with
// more time or budget may succeed, hence 504), then proven infeasibility
// (409 — the request conflicts with the machine model, retrying is
// pointless), and anything else is an internal error.
func classify(err error) (kind string, status int) {
	var pe *looplang.ParseError
	switch {
	case errors.As(err, &pe):
		return KindParse, http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrInvalidLoop), errors.Is(err, core.ErrInvalidMachine):
		return KindInvalid, http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return KindDeadline, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrBudgetExhausted):
		return KindBudget, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrNoSchedule):
		return KindNoSchedule, http.StatusConflict
	default:
		return KindInternal, http.StatusInternalServerError
	}
}

// machineFor resolves a request's machine — a built-in name or an
// inline machlang source — to a shared instance. Sharing one instance
// per name (or per source digest, for inline machines) matters beyond
// allocation: the compile cache memoizes machine fingerprints by
// pointer, so a stable pointer keeps every request on the memoized fast
// path. Inline sources that fail to parse map to KindParse, exactly as
// loop sources do; a validation failure inside one maps to KindInvalid.
func (s *Server) machineFor(req *CompileRequest) (*machine.Machine, *ErrorResponse) {
	if req.MachineSource != "" {
		if req.Machine != "" {
			return nil, &ErrorResponse{Kind: KindInvalid, Error: "machine and machine_source are mutually exclusive"}
		}
		m, err := inlineMachine(req.MachineSource)
		if err != nil {
			var pe *machine.ParseError
			kind := KindParse
			if errors.As(err, &pe) && pe.Line == 0 && pe.Err != nil {
				// Validate failures surface wrapped in a line-less
				// ParseError; they are semantic, not syntactic.
				kind = KindInvalid
			}
			return nil, &ErrorResponse{Kind: kind, Error: err.Error()}
		}
		return m, nil
	}
	name := req.Machine
	if name == "" {
		name = "cydra5"
	}
	if m, ok := s.machines[name]; ok {
		return m, nil
	}
	return nil, &ErrorResponse{Kind: KindInvalid, Error: "unknown machine " + quote(name) + " (want cydra5, generic, tiny, or an inline machine_source)"}
}

// buildOptions translates the request's option spec into scheduler
// options, defaulting every zero field to the paper's configuration.
func buildOptions(spec *OptionsSpec) (core.Options, *ErrorResponse) {
	opts := core.DefaultOptions()
	if spec == nil {
		return opts, nil
	}
	if spec.Budget < 0 {
		return opts, &ErrorResponse{Kind: KindInvalid, Error: "negative budget"}
	}
	if spec.Budget > 0 {
		opts.BudgetRatio = spec.Budget
	}
	if spec.Priority != "" {
		p, err := core.ParsePriority(spec.Priority)
		if err != nil {
			return opts, &ErrorResponse{Kind: KindInvalid, Error: err.Error()}
		}
		opts.Priority = p
	}
	if spec.Delays != "" {
		d, err := ir.ParseDelayModel(spec.Delays)
		if err != nil {
			return opts, &ErrorResponse{Kind: KindInvalid, Error: err.Error()}
		}
		opts.DelayModel = d
	}
	if spec.MaxII < 0 {
		return opts, &ErrorResponse{Kind: KindInvalid, Error: "negative max_ii"}
	}
	opts.MaxII = spec.MaxII
	return opts, nil
}

// compileDeadline derives the per-compile deadline: the request's own
// timeout when given, clamped to the server's ceiling; otherwise the
// server default. Every loop of a batch gets its own full budget — the
// deadline is per compile, never shared across a request's loops.
func (s *Server) compileDeadline(req *CompileRequest) time.Duration {
	d := s.cfg.CompileTimeout
	if req.TimeoutMS > 0 {
		if rd := time.Duration(req.TimeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

// compileItem runs one loop through the full pipeline — parse, bounds,
// cached best-effort scheduling, kernel generation — and folds the
// outcome into a BatchItem. It also feeds the per-loop metrics: outcome
// counts and the scheduler-effort counters.
func (s *Server) compileItem(ctx context.Context, req *CompileRequest) BatchItem {
	if s.testCompileHook != nil {
		s.testCompileHook(req)
	}
	resp, errResp, status := s.compileOne(ctx, req)
	if errResp != nil {
		s.metrics.countLoop(errResp.Kind)
		return BatchItem{Status: status, Error: errResp}
	}
	if resp.Degradation != nil {
		s.metrics.countLoop("degraded")
	} else {
		s.metrics.countLoop("ok")
	}
	return BatchItem{Status: status, Result: resp}
}

// compileOne is the pipeline behind compileItem, mirroring the msched
// CLI stage for stage so the two surfaces classify inputs identically:
// parse, then the Section 2 bounds and the acyclic baseline (whose
// errors — an unschedulable recurrence, say — must win over scheduling
// errors exactly as they do in the CLI), then the cached best-effort
// compile, then kernel lowering.
func (s *Server) compileOne(ctx context.Context, req *CompileRequest) (*CompileResponse, *ErrorResponse, int) {
	m, errResp := s.machineFor(req)
	if errResp != nil {
		return nil, errResp, http.StatusUnprocessableEntity
	}
	opts, errResp := buildOptions(req.Options)
	if errResp != nil {
		return nil, errResp, http.StatusUnprocessableEntity
	}

	loop, err := modsched.ParseLoop(req.Source, m)
	if err != nil {
		kind, status := classify(err)
		return nil, &ErrorResponse{Kind: kind, Error: err.Error()}, status
	}

	bounds, err := modsched.ComputeMII(loop, m, opts.DelayModel)
	if err != nil {
		kind, status := classify(err)
		return nil, &ErrorResponse{Kind: kind, Error: err.Error()}, status
	}
	ls, err := modsched.ListSchedules(loop, m, opts.DelayModel)
	if err != nil {
		kind, status := classify(err)
		return nil, &ErrorResponse{Kind: kind, Error: err.Error()}, status
	}

	cctx, cancel := context.WithTimeout(ctx, s.compileDeadline(req))
	defer cancel()
	sched, deg, err := modsched.CompileBestEffort(cctx, s.cache, loop, m, opts)
	if err != nil {
		kind, status := classify(err)
		return nil, &ErrorResponse{Kind: kind, Error: err.Error()}, status
	}
	s.metrics.countEffort(&sched.Stats)

	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		return nil, &ErrorResponse{Kind: KindInternal, Error: err.Error()}, http.StatusInternalServerError
	}

	resp := &CompileResponse{
		Name:           loop.Name,
		Ops:            loop.NumRealOps(),
		Edges:          len(loop.Edges),
		ResMII:         bounds.ResMII,
		MII:            bounds.MII,
		NonTrivialSCCs: len(bounds.NonTrivialSCCs),
		ListSL:         ls.Length,
		II:             sched.II,
		SL:             sched.Length,
		Stages:         sched.StageCount(),
		SchedSteps:     sched.Stats.SchedSteps,
		Kernel:         kern.String(),
	}
	if deg != nil && deg.Degraded() {
		info := &DegradationInfo{Stage: deg.Stage, Message: deg.String()}
		for _, f := range deg.Failures {
			info.Failures = append(info.Failures, StageFailureInfo{Stage: f.Stage, Error: f.Err.Error()})
		}
		resp.Degradation = info
	}
	return resp, nil, http.StatusOK
}

// quote renders a request-supplied name for a diagnostic.
func quote(s string) string { return strconv.Quote(s) }
