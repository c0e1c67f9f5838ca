// These tests pin the error-classification contract end to end: every
// failure escaping the public Compile* entry points must match the
// documented scherr sentinels with errors.Is and expose its structured
// detail with errors.As — including through CompileBestEffort's
// fallback chain and context cancellation.
package scherr_test

import (
	"context"
	"errors"
	"testing"

	"modsched"
	"modsched/internal/core"
	"modsched/internal/scherr"
)

// tightLoop builds a loop whose ResMII is 2 on the Cydra 5 (four memory
// operations over two ports), so any II=1 search must fail.
func tightLoop(t *testing.T) (*modsched.Loop, *modsched.Machine) {
	t.Helper()
	m := modsched.Cydra5()
	b := modsched.NewBuilder("tight", m)
	x1 := b.Define("load", b.Invariant("p1"))
	x2 := b.Define("load", b.Invariant("p2"))
	x3 := b.Define("load", b.Invariant("p3"))
	s := b.Define("fadd", x1, x2)
	s2 := b.Define("fadd", s, x3)
	b.Effect("store", b.Invariant("q"), s2)
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l, m
}

// capped caps the II search below MII so scheduling must fail.
func capped() modsched.Options {
	opts := modsched.DefaultOptions()
	opts.MaxII = 1
	return opts
}

func TestSentinelClassification(t *testing.T) {
	l, m := tightLoop(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name  string
		err   func(t *testing.T) error
		is    []error
		isNot []error
	}{
		{
			name: "II search exhausted",
			err: func(t *testing.T) error {
				_, err := modsched.Compile(context.Background(), l, m, capped())
				return err
			},
			is:    []error{scherr.ErrNoSchedule},
			isNot: []error{scherr.ErrInvalidLoop, scherr.ErrInvalidMachine, scherr.ErrInternal},
		},
		{
			name: "slack search exhausted",
			err: func(t *testing.T) error {
				_, err := modsched.CompileSlack(context.Background(), l, m, capped())
				return err
			},
			is:    []error{scherr.ErrNoSchedule},
			isNot: []error{scherr.ErrInvalidLoop, scherr.ErrInternal},
		},
		{
			name: "nil loop",
			err: func(t *testing.T) error {
				_, err := modsched.Compile(context.Background(), nil, m, modsched.DefaultOptions())
				return err
			},
			is:    []error{scherr.ErrInvalidLoop},
			isNot: []error{scherr.ErrNoSchedule, scherr.ErrInvalidMachine},
		},
		{
			name: "nil machine",
			err: func(t *testing.T) error {
				_, err := modsched.Compile(context.Background(), l, nil, modsched.DefaultOptions())
				return err
			},
			is:    []error{scherr.ErrInvalidMachine},
			isNot: []error{scherr.ErrNoSchedule, scherr.ErrInvalidLoop},
		},
		{
			name: "nil loop through best effort",
			err: func(t *testing.T) error {
				s, deg, err := modsched.CompileBestEffort(context.Background(), nil, nil, m, modsched.DefaultOptions())
				if s != nil || deg != nil {
					t.Error("invalid input must not be degraded around")
				}
				return err
			},
			is:    []error{scherr.ErrInvalidLoop},
			isNot: []error{scherr.ErrNoSchedule},
		},
		{
			name: "canceled context",
			err: func(t *testing.T) error {
				_, err := modsched.Compile(canceled, l, m, modsched.DefaultOptions())
				return err
			},
			is:    []error{context.Canceled},
			isNot: []error{scherr.ErrNoSchedule, scherr.ErrInternal},
		},
		{
			name: "canceled context through best effort",
			err: func(t *testing.T) error {
				s, deg, err := modsched.CompileBestEffort(canceled, nil, l, m, modsched.DefaultOptions())
				if s != nil || deg != nil {
					t.Error("cancellation must not be degraded around")
				}
				return err
			},
			is:    []error{context.Canceled},
			isNot: []error{scherr.ErrNoSchedule},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err(t)
			if err == nil {
				t.Fatal("expected an error")
			}
			for _, want := range tc.is {
				if !errors.Is(err, want) {
					t.Errorf("errors.Is(%v, %v) = false", err, want)
				}
			}
			for _, not := range tc.isNot {
				if errors.Is(err, not) {
					t.Errorf("errors.Is(%v, %v) = true, want false", err, not)
				}
			}
		})
	}
}

// TestNoScheduleErrorDetail: errors.As reaches the structured report
// with the searched range and the algorithm that failed.
func TestNoScheduleErrorDetail(t *testing.T) {
	l, m := tightLoop(t)
	for _, tc := range []struct {
		algo    string
		compile func() error
	}{
		{"iterative", func() error { _, err := modsched.Compile(context.Background(), l, m, capped()); return err }},
		{"slack", func() error { _, err := modsched.CompileSlack(context.Background(), l, m, capped()); return err }},
	} {
		err := tc.compile()
		var nse *modsched.NoScheduleError
		if !errors.As(err, &nse) {
			t.Fatalf("%s: errors.As(*NoScheduleError) failed on %v", tc.algo, err)
		}
		if nse.Algorithm != tc.algo {
			t.Errorf("Algorithm = %q, want %q", nse.Algorithm, tc.algo)
		}
		if nse.Loop != "tight" || nse.MaxII != 1 || nse.MII != 2 {
			t.Errorf("incomplete detail: %+v", nse)
		}
	}
}

// TestBestEffortDegradationWrapsStageErrors: when the capped search
// fails, the acyclic stage still delivers, and the Degradation report
// carries both earlier failures, each matching ErrNoSchedule.
func TestBestEffortDegradationWrapsStageErrors(t *testing.T) {
	l, m := tightLoop(t)
	s, deg, err := modsched.CompileBestEffort(context.Background(), nil, l, m, capped())
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || !deg.Degraded() {
		t.Fatal("expected a degraded schedule")
	}
	if deg.Stage != core.StageAcyclic {
		t.Errorf("Stage = %q, want %q", deg.Stage, core.StageAcyclic)
	}
	if len(deg.Failures) != 2 {
		t.Fatalf("got %d stage failures, want 2 (iterative, slack)", len(deg.Failures))
	}
	wantStages := []string{core.StageIterative, core.StageSlack}
	for i, f := range deg.Failures {
		if f.Stage != wantStages[i] {
			t.Errorf("failure %d stage = %q, want %q", i, f.Stage, wantStages[i])
		}
		if !errors.Is(f.Err, scherr.ErrNoSchedule) {
			t.Errorf("stage %s error %v does not match ErrNoSchedule", f.Stage, f.Err)
		}
		var nse *modsched.NoScheduleError
		if !errors.As(f.Err, &nse) {
			t.Errorf("stage %s error %v hides *NoScheduleError", f.Stage, f.Err)
		}
	}
	if err := modsched.CheckSchedule(s); err != nil {
		t.Errorf("degraded schedule fails verification: %v", err)
	}
}

// TestInternalErrorFromRecoveredPanic: panic containment produces an
// *InternalError matching ErrInternal and carrying the panic value.
func TestInternalErrorFromRecoveredPanic(t *testing.T) {
	boom := func() (err error) {
		defer core.RecoverToInternal("victim", &err)
		panic("invariant broken")
	}
	err := boom()
	if !errors.Is(err, scherr.ErrInternal) {
		t.Fatalf("errors.Is(%v, ErrInternal) = false", err)
	}
	if errors.Is(err, scherr.ErrNoSchedule) {
		t.Error("internal error must not match ErrNoSchedule")
	}
	var ie *modsched.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("errors.As(*InternalError) failed on %v", err)
	}
	if ie.Loop != "victim" || ie.Panic != "invariant broken" || len(ie.Stack) == 0 {
		t.Errorf("incomplete diagnostic: loop=%q panic=%v stack=%d bytes", ie.Loop, ie.Panic, len(ie.Stack))
	}
}

// TestBudgetExhaustedSentinel: an abandoned-for-budget attempt marks the
// failure with ErrBudgetExhausted alongside ErrNoSchedule.
func TestBudgetExhaustedSentinel(t *testing.T) {
	l, m := tightLoop(t)
	opts := capped()
	opts.BudgetRatio = 0.01
	_, err := modsched.Compile(context.Background(), l, m, opts)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, scherr.ErrNoSchedule) {
		t.Fatalf("errors.Is(%v, ErrNoSchedule) = false", err)
	}
	var nse *modsched.NoScheduleError
	if !errors.As(err, &nse) {
		t.Fatal("no *NoScheduleError")
	}
	if nse.BudgetExhausted != errors.Is(err, scherr.ErrBudgetExhausted) {
		t.Errorf("BudgetExhausted field (%v) disagrees with the sentinel", nse.BudgetExhausted)
	}
}
