package modsched_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"modsched"
)

// FuzzCompile feeds arbitrary loop-format text through the whole public
// pipeline: parse against a real machine, compile with a deadline, verify
// any produced schedule, and exercise the best-effort fallback chain. The
// contract under fuzzing: no entry point may panic, every rejection is a
// typed error, and every schedule that comes back passes CheckSchedule.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"loop daxpy\nprofile 5 10000\n\nxi = aadd xi@1, #8\nx  = load xi\nyi = aadd yi@1, #8\ny  = load yi\nt1 = fmul a, x\nt2 = fadd y, t1\nsi = aadd si@1, #8\nst: store si, t2\nbrtop\n",
		"loop rec\nx = fadd x@1, a\nbrtop\n",
		"loop deps\na: x = load p\nb: store q, x\nbrtop\n!mem b -> a dist 1\n",
		"loop pred\np = cmp x, limit\n(p) s = fadd s@1, x\nbrtop\n",
		"loop tiny\nbrtop\n",
		"loop divs\nd = fdiv d@1, a\ne = fsqrt d\nbrtop\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	m := modsched.Tiny()
	f.Fuzz(func(t *testing.T, src string) {
		l, err := modsched.ParseLoop(src, m)
		if err != nil {
			var pe *modsched.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("parse rejection is not a *ParseError: %T %v", err, err)
			}
			return
		}
		opts := modsched.DefaultOptions()
		opts.MaxII = 64 // bound the II search on adversarial recurrences
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()

		s, err := modsched.Compile(ctx, l, m, opts)
		if err == nil {
			if cerr := modsched.CheckSchedule(s); cerr != nil {
				t.Fatalf("compiled schedule fails verification: %v\ninput:\n%s", cerr, src)
			}
		} else if errors.Is(err, modsched.ErrInternal) {
			t.Fatalf("internal error on parseable input: %v\ninput:\n%s", err, src)
		}

		bs, deg, err := modsched.CompileBestEffort(ctx, nil, l, m, opts)
		if err != nil {
			// Only cancellation and input rejection may defeat best effort.
			if ctx.Err() == nil && !errors.Is(err, modsched.ErrInvalidLoop) && !errors.Is(err, modsched.ErrInvalidMachine) && !errors.Is(err, modsched.ErrNoSchedule) {
				t.Fatalf("best effort failed unexpectedly: %v\ninput:\n%s", err, src)
			}
			return
		}
		if cerr := modsched.CheckSchedule(bs); cerr != nil {
			t.Fatalf("best-effort schedule (stage %s) fails verification: %v\ninput:\n%s", deg.Stage, cerr, src)
		}
	})
}
