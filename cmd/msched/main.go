// Command msched modulo-schedules a loop written in the textual loop
// format (see internal/looplang) and prints the resulting schedule and
// kernel-only code:
//
//	msched [-machine cydra5|generic|tiny|FILE.mach] [-algo iterative|slack]
//	       [-budget 2] [-priority heightr|fifo|depth|recfirst]
//	       [-delays vliw|conservative] [-timeout 0] [-besteffort]
//	       [-cache] [-verbose] [-mrt] [-gantt N]
//	       [-backsub] [-flat] [-cpuprofile f] [-memprofile f]
//	       [-server addr] file.loop [file2.loop ...]
//
// With no file it reads standard input; with several files it compiles
// each in turn under a `== name ==` header. -mrt prints the schedule's
// modulo reservation table, -gantt N a pipeline diagram of N overlapped
// iterations, -backsub applies recurrence back-substitution first, and
// -flat also reports the explicit prologue/kernel/epilogue schema.
// -cache memoizes compilations across the input files, so structurally
// identical loops schedule once, and reports hit/miss counters at the
// end. -timeout bounds the whole compilation; -besteffort falls back to
// slack scheduling and then to an unpipelined degenerate schedule rather
// than failing. When -timeout expires under -besteffort, the degenerate
// schedule is still produced (the acyclic stage needs no deadline), the
// degradation report is flushed to stderr, and the exit code is 0.
//
// -server addr ships the sources to a running mschedd — or an
// mschedfront fleet — (docs/serving.md) instead of compiling
// in-process; the printed output is byte-identical to local
// compilation. Local-only flags (-verbose, -mrt, -gantt, -flat,
// -backsub, -cache, profiling, -algo) are rejected in this mode. A
// shedding server (429) is retried honoring its Retry-After hint, with
// a bounded total wait; an unreachable or fully-drained serving tier
// falls back to local compilation with a one-line warning instead of
// failing.
//
// Exit codes: 0 success (including a degraded -besteffort result); 2
// usage, flag, or input errors; 3 loop parse error; 4 no schedule found
// (including deadline expiry without -besteffort); 5 internal scheduler
// error; 1 anything else. Diagnostics are one line on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"modsched/internal/backsub"
	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/mii"
	"modsched/internal/modvar"
	"modsched/internal/schedcache"
)

// Exit codes, one per failure class, so scripts can dispatch without
// scraping stderr.
const (
	exitOK       = 0
	exitOther    = 1
	exitUsage    = 2
	exitParse    = 3
	exitNoSched  = 4
	exitInternal = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole program behind an exit code, so tests can drive it
// in-process. No panic may escape: anything recovered here is reported as
// a one-line internal-error diagnostic, never a stack trace.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "msched: internal error: %v\n", r)
			code = exitInternal
		}
	}()

	fs := flag.NewFlagSet("msched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machName   = fs.String("machine", "cydra5", "target machine: cydra5, generic, tiny, or a machlang file (docs/machines.md)")
		budget     = fs.Float64("budget", 2, "BudgetRatio: scheduling steps allowed per operation per II attempt")
		priority   = fs.String("priority", "heightr", "priority function: heightr, fifo, depth, recfirst")
		algo       = fs.String("algo", "iterative", "scheduling algorithm: iterative (the paper's), slack (Huff)")
		delays     = fs.String("delays", "vliw", "delay model: vliw, conservative")
		timeout    = fs.Duration("timeout", 0, "abort compilation after this long (0 = no deadline)")
		besteffort = fs.Bool("besteffort", false, "degrade through slack and unpipelined scheduling instead of failing")
		useCache   = fs.Bool("cache", false, "memoize compilations across input files and report hit/miss counters")
		verbose    = fs.Bool("verbose", false, "print the parsed loop and per-op schedule")
		flat       = fs.Bool("flat", false, "also emit explicit prologue/kernel/epilogue code (modulo variable expansion)")
		backsubF   = fs.Bool("backsub", false, "back-substitute closed-form inductions before scheduling")
		mrt        = fs.Bool("mrt", false, "print the schedule's modulo reservation table")
		gantt      = fs.Int("gantt", 0, "print a pipeline diagram with N overlapped iterations")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the compilation to this file")
		memProf    = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		serverAddr = fs.String("server", "", "compile via a running mschedd at this address instead of in-process")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage // the flag package already printed the diagnostic
	}
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "msched: "+format+"\n", args...)
		return code
	}

	if *serverAddr != "" {
		// Served compilation ships sources to mschedd; only the flags that
		// travel on the wire are allowed. Everything local-only — output
		// decorations, transforms, the per-process cache, profiling — is an
		// error rather than a silent no-op. (The serving branch itself is
		// below, after the machine and options are built: the client falls
		// back to local compilation when the serving tier is gone, so it
		// needs the whole local pipeline on standby.)
		for flagName, set := range map[string]bool{
			"-verbose": *verbose, "-mrt": *mrt, "-gantt": *gantt > 0,
			"-flat": *flat, "-backsub": *backsubF, "-cache": *useCache,
			"-cpuprofile": *cpuProf != "", "-memprofile": *memProf != "",
			"-algo": *algo != "iterative",
		} {
			if set {
				return fail(exitUsage, "%s is not supported with -server (the daemon compiles best-effort with its own cache)", flagName)
			}
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(exitUsage, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(exitOther, "%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "msched: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "msched: %v\n", err)
			}
			f.Close()
		}()
	}

	m, machSource, err := machine.ResolveSpec(*machName)
	if err != nil {
		return fail(exitUsage, "%v", err)
	}

	opts := core.DefaultOptions()
	opts.BudgetRatio = *budget
	if opts.Priority, err = core.ParsePriority(*priority); err != nil {
		return fail(exitUsage, "%v", err)
	}
	if *algo != "iterative" && *algo != "slack" {
		return fail(exitUsage, "unknown algorithm %q", *algo)
	}
	if opts.DelayModel, err = ir.ParseDelayModel(*delays); err != nil {
		return fail(exitUsage, "%v", err)
	}

	srcs, err := readInputs(fs, stdin)
	if err != nil {
		return fail(exitUsage, "%v", err)
	}

	if *serverAddr != "" {
		// localOne is the graceful-degradation path: when the serving tier
		// is unreachable (or every replica is ejected), the client compiles
		// the input itself, exactly as it would have without -server.
		lf := flags{algo: *algo, besteffort: *besteffort, timeout: *timeout}
		localOne := func(in input) int {
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if *timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, *timeout)
			}
			defer cancel()
			return compileOne(ctx, in.src, m, opts, nil, lf, stdout, stderr)
		}
		// A file-spec machine travels inline as machlang source; built-in
		// names travel by name. Either way the server compiles against a
		// machine whose fingerprint matches the local one, so the output
		// stays byte-identical to local compilation.
		cf := clientFlags{
			budget: *budget, priority: *priority,
			delays: *delays, timeout: *timeout,
			besteffort: *besteffort,
		}
		if machSource != "" {
			cf.machineSource = machSource
		} else {
			cf.machine = *machName
		}
		return runServed(*serverAddr, srcs, cf, localOne, stdout, stderr)
	}

	var cache *schedcache.Cache
	if *useCache {
		cache = schedcache.New(0)
	}

	for i, in := range srcs {
		if len(srcs) > 1 {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			fmt.Fprintf(stdout, "== %s ==\n", in.name)
		}
		// The deadline is per input: each file gets the full -timeout
		// budget. (A single context around the whole loop would hand later
		// files whatever earlier files left over — possibly nothing — and
		// spuriously degrade them.)
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		code := compileOne(ctx, in.src, m, opts, cache, flags{
			algo: *algo, besteffort: *besteffort, verbose: *verbose,
			flat: *flat, backsub: *backsubF, mrt: *mrt, gantt: *gantt,
			timeout: *timeout,
		}, stdout, stderr)
		cancel()
		if code != exitOK {
			return code
		}
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stdout, "\ncache: %d hits, %d misses, %d inflight joins, %d evictions\n",
			st.Hits, st.Misses, st.Inflight, st.Evictions)
	}
	return exitOK
}

// flags carries the per-compilation options of the command line.
type flags struct {
	algo       string
	besteffort bool
	verbose    bool
	flat       bool
	backsub    bool
	mrt        bool
	gantt      int
	timeout    time.Duration
}

// compileOne parses, schedules, and prints one loop, returning an exit
// code. A non-nil cache memoizes the scheduling step across calls.
func compileOne(ctx context.Context, src string, m *machine.Machine, opts core.Options, cache *schedcache.Cache, f flags, stdout, stderr io.Writer) int {
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "msched: "+format+"\n", args...)
		return code
	}
	loop, err := looplang.Parse(src, m)
	if err != nil {
		return fail(exitParse, "%v", err)
	}

	if f.backsub {
		transformed, rewrites, err := backsub.Apply(loop, m, 1)
		if err != nil {
			return fail(exitOther, "%v", err)
		}
		for _, rw := range rewrites {
			fmt.Fprintf(stdout, "back-substituted op %d: distance %d -> %d\n", rw.Op, rw.OldDist, rw.NewDist)
		}
		loop = transformed
	}

	if f.verbose {
		fmt.Fprint(stdout, looplang.Print(loop))
		fmt.Fprintln(stdout)
	}

	dl, err := ir.Delays(loop, m, opts.DelayModel)
	if err != nil {
		return fail(exitOther, "%v", err)
	}
	bounds, err := mii.Compute(loop, m, dl, nil)
	if err != nil {
		return fail(schedExit(err), "%v", err)
	}
	ls, err := listsched.Schedule(loop, m, dl)
	if err != nil {
		return fail(exitOther, "%v", err)
	}

	fmt.Fprintf(stdout, "loop %s: %d operations, %d edges\n", loop.Name, loop.NumRealOps(), len(loop.Edges))
	fmt.Fprintf(stdout, "ResMII=%d MII=%d non-trivial SCCs=%d acyclic-list SL=%d\n",
		bounds.ResMII, bounds.MII, len(bounds.NonTrivialSCCs), ls.Length)

	// memo routes the scheduling step through the cache when one is
	// enabled; errors are never cached, so the deadline fallback below
	// still runs per input.
	memo := func(compile schedcache.CompileFunc) (*core.Schedule, *core.Degradation, error) {
		if cache == nil {
			return compile()
		}
		return cache.Do(ctx, loop, m, opts, compile)
	}
	var sched *core.Schedule
	switch {
	case f.besteffort:
		var deg *core.Degradation
		sched, deg, err = memo(func() (*core.Schedule, *core.Degradation, error) {
			return core.ModuloScheduleBestEffort(ctx, loop, m, opts)
		})
		if err != nil && ctx.Err() != nil &&
			!errors.Is(err, core.ErrInvalidLoop) && !errors.Is(err, core.ErrInvalidMachine) {
			// The deadline killed the pipelined stages mid-chain. -besteffort
			// promises a schedule anyway: the degenerate acyclic stage needs
			// no II search, so run it without a deadline and report the
			// degradation deterministically — the report must not race the
			// timer.
			fallback, aerr := core.ModuloScheduleAcyclic(context.Background(), loop, m, opts)
			if aerr != nil {
				return fail(schedExit(err), "deadline of %v expired and acyclic fallback failed: %v (deadline error: %v)", f.timeout, aerr, err)
			}
			sched = fallback
			deg = &core.Degradation{
				Stage:    core.StageAcyclic,
				Failures: []core.StageFailure{{Stage: "pipelined stages", Err: err}},
			}
			err = nil
		}
		if err == nil && deg.Degraded() {
			// Flush the report before any schedule output, so it is emitted
			// even if a later lowering step fails.
			fmt.Fprintf(stderr, "msched: warning: %s\n", deg)
		}
	case f.algo == "slack":
		sched, _, err = memo(func() (*core.Schedule, *core.Degradation, error) {
			s, serr := core.ModuloScheduleSlackContext(ctx, loop, m, opts)
			return s, nil, serr
		})
	default:
		sched, _, err = memo(func() (*core.Schedule, *core.Degradation, error) {
			s, serr := core.ModuloScheduleContext(ctx, loop, m, opts)
			return s, nil, serr
		})
	}
	if err != nil {
		if ctx.Err() != nil {
			return fail(exitNoSched, "deadline of %v expired: %v", f.timeout, err)
		}
		return fail(schedExit(err), "%v", err)
	}
	fmt.Fprintf(stdout, "II=%d (DeltaII=%d) SL=%d stages=%d scheduling steps=%d\n\n",
		sched.II, sched.II-sched.MII, sched.Length, sched.StageCount(), sched.Stats.SchedSteps)

	if f.verbose {
		printScheduleTable(stdout, sched)
		fmt.Fprintln(stdout)
	}

	if f.mrt {
		fmt.Fprint(stdout, sched.MRTString())
		fmt.Fprintln(stdout)
	}
	if f.gantt > 0 {
		fmt.Fprint(stdout, sched.GanttString(f.gantt))
		fmt.Fprintln(stdout)
	}

	kern, err := codegen.GenerateKernel(sched)
	if err != nil {
		return fail(exitOther, "%v", err)
	}
	fmt.Fprint(stdout, kern.String())

	if f.flat {
		u, err := modvar.PlanUnroll(sched)
		if err != nil {
			return fail(exitOther, "%v", err)
		}
		trips := modvar.ValidTrips(sched.StageCount(), u, 100)
		fl, err := modvar.Generate(sched, trips)
		if err != nil {
			return fail(exitOther, "%v", err)
		}
		fmt.Fprintf(stdout, "\nexplicit schema (for %d trips): unroll U=%d, %d instructions (prologue %d + kernel %d + epilogue %d)\n",
			trips, fl.U, fl.CodeSize(), len(fl.Prologue), len(fl.Kernel), len(fl.Epilogue))
		for _, pi := range fl.Preinit {
			fmt.Fprintf(stdout, "  preinit %v = init(r%d, back %d)\n", pi.Dst, pi.Reg, pi.Back)
		}
	}
	return exitOK
}

// schedExit classifies a compilation error into an exit code.
func schedExit(err error) int {
	switch {
	case errors.Is(err, core.ErrInternal):
		return exitInternal
	case errors.Is(err, core.ErrNoSchedule),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return exitNoSched
	case errors.Is(err, core.ErrInvalidLoop), errors.Is(err, core.ErrInvalidMachine):
		return exitUsage
	default:
		return exitOther
	}
}

func printScheduleTable(w io.Writer, s *core.Schedule) {
	type row struct{ t, id int }
	rows := make([]row, 0, s.Loop.NumOps())
	for i := range s.Loop.Ops {
		rows = append(rows, row{t: s.Times[i], id: i})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].t != rows[j].t {
			return rows[i].t < rows[j].t
		}
		return rows[i].id < rows[j].id
	})
	fmt.Fprintln(w, "time  stage slot  op")
	for _, r := range rows {
		op := s.Loop.Ops[r.id]
		if op.IsPseudo() {
			continue
		}
		alt := s.Machine.MustOpcode(op.Opcode).Alternatives[s.Alts[r.id]]
		fmt.Fprintf(w, "%5d %5d %4d  %s (%s)", r.t, r.t/s.II, r.t%s.II, op.Opcode, alt.Name)
		if op.Comment != "" {
			fmt.Fprintf(w, "  ; %s", op.Comment)
		}
		fmt.Fprintln(w)
	}
}

// input is one loop source to compile, with the name shown in multi-file
// headers.
type input struct {
	name, src string
}

func readInputs(fs *flag.FlagSet, stdin io.Reader) ([]input, error) {
	if fs.NArg() == 0 {
		b, err := io.ReadAll(stdin)
		if err != nil {
			return nil, err
		}
		return []input{{name: "<stdin>", src: string(b)}}, nil
	}
	ins := make([]input, 0, fs.NArg())
	for _, arg := range fs.Args() {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		ins = append(ins, input{name: filepath.Base(arg), src: string(b)})
	}
	return ins, nil
}
