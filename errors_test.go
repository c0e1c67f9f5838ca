package modsched_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"modsched"
)

func daxpyLoop(t *testing.T, m *modsched.Machine) *modsched.Loop {
	t.Helper()
	l, err := modsched.ParseLoop(`
loop daxpy
xi = aadd xi@1, #8
x  = load xi
yi = aadd yi@1, #8
y  = load yi
t1 = fmul a, x
t2 = fadd y, t1
si = aadd si@1, #8
st: store si, t2
brtop
`, m)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSentinelsThroughEntryPoints drives every public compile entry point
// into each failure class and asserts the sentinel dispatches with
// errors.Is, per the package's error contract.
func TestSentinelsThroughEntryPoints(t *testing.T) {
	m := modsched.Cydra5()
	good := daxpyLoop(t, m)

	// A loop that fails ir validation: dangling edge target.
	bad := daxpyLoop(t, m)
	bad.Edges[0].To = 9999

	entry := func(name string) func(*modsched.Loop, *modsched.Machine, modsched.Options) error {
		return func(l *modsched.Loop, mm *modsched.Machine, opts modsched.Options) error {
			switch name {
			case "Compile":
				_, err := modsched.Compile(context.Background(), l, mm, opts)
				return err
			case "CompileSlack":
				_, err := modsched.CompileSlack(context.Background(), l, mm, opts)
				return err
			case "CompileBestEffort":
				_, _, err := modsched.CompileBestEffort(context.Background(), nil, l, mm, opts)
				return err
			case "CompileBestEffortWithCache":
				_, _, err := modsched.CompileBestEffort(context.Background(), modsched.NewCompileCache(0), l, mm, opts)
				return err
			}
			panic("unknown entry")
		}
	}
	for _, name := range []string{"Compile", "CompileSlack", "CompileBestEffort", "CompileBestEffortWithCache"} {
		call := entry(name)
		t.Run(name, func(t *testing.T) {
			if err := call(nil, m, modsched.DefaultOptions()); !errors.Is(err, modsched.ErrInvalidLoop) {
				t.Errorf("nil loop: want ErrInvalidLoop, got %v", err)
			}
			if err := call(good, nil, modsched.DefaultOptions()); !errors.Is(err, modsched.ErrInvalidMachine) {
				t.Errorf("nil machine: want ErrInvalidMachine, got %v", err)
			}
			if err := call(bad, m, modsched.DefaultOptions()); !errors.Is(err, modsched.ErrInvalidLoop) {
				t.Errorf("dangling edge: want ErrInvalidLoop, got %v", err)
			}
			if strings.HasPrefix(name, "CompileBestEffort") {
				return // degrades rather than reporting ErrNoSchedule
			}
			opts := modsched.DefaultOptions()
			opts.MaxII = 1 // below daxpy's MII on Cydra5
			err := call(good, m, opts)
			if !errors.Is(err, modsched.ErrNoSchedule) {
				t.Errorf("MaxII=1: want ErrNoSchedule, got %v", err)
			}
			var nse *modsched.NoScheduleError
			if !errors.As(err, &nse) {
				t.Errorf("MaxII=1: error is not *NoScheduleError: %T", err)
			} else if nse.Loop != "daxpy" || nse.MaxII != 1 {
				t.Errorf("NoScheduleError = %+v", nse)
			}
		})
	}
}

// TestCorruptedMachineIsContained corrupts a machine description behind
// the API's back (truncating the exported resource list so validation
// itself faults) and asserts the panic is contained as ErrInternal — no
// panic may escape an exported entry point.
func TestCorruptedMachineIsContained(t *testing.T) {
	m := modsched.Cydra5()
	l := daxpyLoop(t, m)
	m.Resources = m.Resources[:1]
	for name, call := range map[string]func() error{
		"Compile": func() error {
			_, err := modsched.Compile(context.Background(), l, m, modsched.DefaultOptions())
			return err
		},
		"CompileSlack": func() error {
			_, err := modsched.CompileSlack(context.Background(), l, m, modsched.DefaultOptions())
			return err
		},
		"CompileBestEffort": func() error {
			_, _, err := modsched.CompileBestEffort(context.Background(), nil, l, m, modsched.DefaultOptions())
			return err
		},
		"CompileBestEffortWithCache": func() error {
			_, _, err := modsched.CompileBestEffort(context.Background(), modsched.NewCompileCache(0), l, m, modsched.DefaultOptions())
			return err
		},
	} {
		err := call()
		if !errors.Is(err, modsched.ErrInternal) {
			t.Errorf("%s: want ErrInternal, got %v", name, err)
		}
		var ie *modsched.InternalError
		if !errors.As(err, &ie) {
			t.Errorf("%s: error is not *InternalError: %T", name, err)
		} else if ie.Panic == nil || len(ie.Stack) == 0 {
			t.Errorf("%s: InternalError lost its diagnostics: %+v", name, ie)
		}
	}
}

// TestPreCancelledContextReturnsFast: with an already-cancelled context,
// compilation of the largest corpus loop must return promptly (well under
// 100ms) wrapping context.Canceled.
func TestPreCancelledContextReturnsFast(t *testing.T) {
	m := modsched.Cydra5()
	loops, err := modsched.PaperCorpus(m)
	if err != nil {
		t.Fatal(err)
	}
	largest := loops[0]
	for _, l := range loops {
		if l.NumOps() > largest.NumOps() {
			largest = l
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = modsched.Compile(ctx, largest, m, modsched.DefaultOptions())
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancelled compile of %s (%d ops) took %v, want <100ms", largest.Name, largest.NumOps(), elapsed)
	}
}

// TestBestEffortAlwaysDelivers: with MaxII forced below MII, every corpus
// loop (all 27 Livermore kernels plus a synthetic sample) must still get
// a Check-verified schedule from the fallback chain.
func TestBestEffortAlwaysDelivers(t *testing.T) {
	m := modsched.Cydra5()
	loops, err := modsched.LivermoreKernels(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modsched.DefaultGenConfig()
	cfg.N = 40
	synth, err := modsched.SyntheticCorpus(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	loops = append(loops, synth...)

	degraded := 0
	for _, l := range loops {
		bounds, err := modsched.ComputeMII(l, m, modsched.VLIWDelays)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		opts := modsched.DefaultOptions()
		opts.MaxII = bounds.MII - 1
		if opts.MaxII < 1 {
			opts.MaxII = 1 // MII == 1: cannot go lower, the cap still binds hard
		}
		s, deg, err := modsched.CompileBestEffort(context.Background(), nil, l, m, opts)
		if err != nil {
			t.Fatalf("%s: best effort failed: %v", l.Name, err)
		}
		if err := modsched.CheckSchedule(s); err != nil {
			t.Fatalf("%s: schedule fails verification: %v", l.Name, err)
		}
		if deg.Degraded() {
			degraded++
			if deg.Stage != "acyclic" {
				t.Errorf("%s: degraded to %q, want acyclic when MaxII < MII", l.Name, deg.Stage)
			}
			if len(deg.Failures) == 0 {
				t.Errorf("%s: degradation report lost its failures", l.Name)
			}
		}
	}
	if degraded == 0 {
		t.Error("no loop degraded: MaxII cap never bound")
	}
	t.Logf("%d/%d loops degraded to the acyclic fallback", degraded, len(loops))
}
