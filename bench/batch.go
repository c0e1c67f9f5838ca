package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"time"

	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/mii"
	"modsched/internal/modvar"
	"modsched/internal/vliw"
)

// simTrips is the trip count every cycle figure assumes.
const simTrips = 1000

// batchItem is one unit of closed-loop work. Which fields are set depends
// on the workload: looplang source for corpus-compile, a built loop
// elsewhere, a run spec (and for the golden kernels a predicate) for
// simulate.
type batchItem struct {
	src    string
	loop   *ir.Loop
	mach   *machine.Machine
	opts   core.Options
	spec   vliw.RunSpec
	golden func(*vliw.Result) error
}

// batchWorkload runs its items one after another on one goroutine, pass
// after pass: a closed loop with one client.
type batchWorkload struct {
	items []batchItem
	run   func(c *itemCtx, it *batchItem) error
	// ref is the warm-up pass's outcome; every timed pass must equal it.
	ref passStats
}

// passStats are the exact outcomes of one pass. Scheduling is
// deterministic, so every pass of a run reproduces the first field for
// field; a difference is reported as a wrong output.
type passStats struct {
	items, failed, wrong int64
	loops, atMII         int64
	deltaII              int64
	cycles, bound        int64 // kernel-only cycles at simTrips, and simTrips*MII
	recBound             int64 // loops whose MII exceeds their ResMII
	miiInner, resInsp    int64 // the harness's own mii.Compute calls
	sched                core.Counters
	ops                  int64 // operations incl. START/STOP: list scheduling's step count
	degraded             int64
	kernelOps, rotRegs   int64
	flatLoops, unrollSum int64
	codeSize             int64
	simCycles            int64
	bytes                int64  // looplang source parsed
	digest               uint64 // FNV-1a of the pass's schedules and outputs
}

// itemCtx carries one item's tracing identity and its pass's tallies.
type itemCtx struct {
	tr     *tracer
	id     int64
	ps     *passStats
	digest hash.Hash64 // the pass's running digest
}

// digestInts writes each list to the pass digest, length first, as
// varints.
func (c *itemCtx) digestInts(xs ...[]int) {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, uint64(len(x)))
		for _, v := range x {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	c.digest.Write(b)
}

// call times fn as a span of this item.
func (c *itemCtx) call(name string, fn func()) { c.tr.call(name, c.id, c.id, fn) }

// wrongOutput marks an output its oracle rejected, as opposed to an
// operation that failed outright.
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return e.msg }

func wrongf(format string, args ...any) error { return &wrongOutput{fmt.Sprintf(format, args...)} }

// pass runs every item once.
func (w *batchWorkload) pass(tr *tracer, lat *[]float64) (passStats, time.Duration, error) {
	var ps passStats
	digest := fnv.New64a()
	passID := tr.newID()
	start := time.Now()
	var firstErr error
	for i := range w.items {
		c := &itemCtx{tr: tr, id: tr.newID(), ps: &ps, digest: digest}
		t0 := time.Now()
		err := w.run(c, &w.items[i])
		t1 := time.Now()
		if tr != nil {
			tr.add(span{ID: c.id, Parent: passID, Item: c.id, Name: "item", Start: t0.UnixNano(), End: t1.UnixNano()})
		}
		if lat != nil {
			*lat = append(*lat, float64(t1.Sub(t0))/1e6)
		}
		ps.items++
		var wo *wrongOutput
		switch {
		case errors.As(err, &wo):
			ps.wrong++
		case err != nil:
			ps.failed++
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("item %d: %w", i, err)
		}
	}
	end := time.Now()
	if tr != nil {
		tr.add(span{ID: passID, Name: "pass", Start: start.UnixNano(), End: end.UnixNano()})
	}
	ps.digest = digest.Sum64()
	return ps, end.Sub(start), firstErr
}

// warmUp runs the untimed pass that fills the compiled-mask cache and the
// scratch pools, and keeps its outcome as the reference for every later
// pass. No operation may fail on a benchmark workload, so any error here
// aborts set-up.
func (w *batchWorkload) warmUp() error {
	ps, _, err := w.pass(nil, nil)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	w.ref = ps
	return nil
}

// batchPhase is what one timed phase measured.
type batchPhase struct {
	rates  []float64 // items per second, one per pass
	lat    []float64 // per-item latency in ms, in completion order
	items  int64
	failed int64
	wrong  int64
	drift  int // passes whose exact outcome differed from the warm-up pass
	rt     runtimeDelta
	errs   []error
}

// measure runs passes until d has elapsed, at least two of them so the
// drift check always compares something.
func (w *batchWorkload) measure(d time.Duration, tr *tracer) batchPhase {
	var ph batchPhase
	rt0 := readRuntime()
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < d; n++ {
		ps, dur, err := w.pass(tr, &ph.lat)
		ph.rates = append(ph.rates, float64(len(w.items))/dur.Seconds())
		ph.items += ps.items
		ph.failed += ps.failed
		ph.wrong += ps.wrong
		if err != nil && len(ph.errs) < 3 {
			ph.errs = append(ph.errs, err)
		}
		if ps.failed == 0 && ps.wrong == 0 && ps != w.ref {
			ph.drift++ // a pass with failures differs anyway; count it once
		}
	}
	ph.rt = readRuntime().sub(rt0)
	return ph
}

// runBatch is the timed part of a closed-loop workload: the untraced
// phase for the end-to-end metrics and, when traced, a second phase with
// spans for the per-layer ones. The untraced phase keeps two thirds of the
// time then, so that simulate, the slowest per loop, still has ten samples
// beyond its p99 at the default -seconds on a slowed machine.
func runBatch(w *batchWorkload, rep *report, d time.Duration, traced bool) *tracer {
	td := time.Duration(0)
	if traced {
		d, td = d*2/3, d/3
	}
	ph := w.measure(d, nil)
	foldPhase(rep, &ph)
	setThroughput(rep, ph.rates)
	setPercentiles(rep, ph.lat)
	setQuality(rep, &w.ref)
	if !traced {
		return nil
	}
	tr := newTracer()
	tph := w.measure(td, tr)
	foldPhase(rep, &tph)
	p := profile(tr.snapshot())
	setLayers(rep, p, &w.ref, len(tph.rates), ph.rt, ph.items)
	rep.set("trace.overhead_pct", 100*(median(ph.rates)/median(tph.rates)-1))
	rep.LayerTable = p.table()
	return tr
}

// foldPhase adds a phase's operation counts and drift to the report.
func foldPhase(rep *report, ph *batchPhase) {
	rep.Attempted += ph.items
	rep.Failed += ph.failed
	rep.Wrong += ph.wrong + int64(ph.drift)
	if ph.drift > 0 {
		rep.invalidf("%d passes drifted from the warm-up pass's exact outcome", ph.drift)
	}
	for _, err := range ph.errs {
		rep.invalidf("%v", err)
	}
}

// setThroughput records throughput_per_s as the median of per-pass or
// per-window rates, with their quartiles.
func setThroughput(rep *report, rates []float64) {
	rep.set("throughput_per_s", median(rates))
	q1, _, q3 := quartiles(rates)
	rep.detail("throughput_q1_per_s", q1, "1/s")
	rep.detail("throughput_q3_per_s", q3, "1/s")
	rep.detail("throughput_windows", float64(len(rates)), "count")
}

// setPercentiles sets latency_p50_ms and latency_p90_ms, and records the
// p99 as detail. The run is invalid when the samples cannot support a p99
// with minBeyond samples beyond it, or when a percentile falls on a failed
// request's +Inf, which is then left unreported.
func setPercentiles(rep *report, lat []float64) {
	s := sortedCopy(lat)
	rep.detail("latency_samples", float64(len(s)), "count")
	rep.detail("latency_highest_pct", 100*highestPercentile(len(s)), "%")
	for _, p := range percentileLadder {
		name := fmt.Sprintf("latency_p%g_ms", 100*p)
		v, err := percentile(s, p)
		if err != nil {
			rep.invalidf("%s: %v", name, err) // v is 0, which no valid run reports
		}
		if math.IsInf(v, 1) {
			rep.invalidf("%s: falls on a failed or unsent request", name)
			continue
		}
		if _, ok := find(endToEnd, name); ok {
			rep.set(name, v)
		} else {
			rep.detail(name, v, "ms")
		}
	}
}

// setQuality derives the exact schedule-quality metrics from a pass.
func setQuality(rep *report, ps *passStats) {
	rep.set("ii_eq_mii_pct", pct(ps.atMII, ps.loops))
	rep.set("cycles_vs_mii", ratio(ps.cycles, ps.bound))
	rep.set("delta_ii_per_loop", ratio(ps.deltaII, ps.loops))
	rep.detail("loops_per_pass", float64(ps.loops), "count")
	if ps.flatLoops > 0 {
		rep.detail("sim_cycles", float64(ps.simCycles), "count")
		rep.detail("code_size_ops", float64(ps.codeSize), "count")
	}
}

// zeroLayers sets every per-layer metric to 0, so a layer the workload
// never calls still reports, as no work.
func zeroLayers(rep *report) {
	for _, m := range perLayer {
		rep.set(m.Name, 0)
	}
}

// setLayers fills the per-layer catalogue from the traced profile of
// tracedPasses passes and the exact per-pass counters.
func setLayers(rep *report, p *layerProfile, ps *passStats, tracedPasses int, rt runtimeDelta, items int64) {
	zeroLayers(rep)
	for _, l := range []string{"looplang", "mii", "listsched", "core", "codegen", "modvar", "vliw", "harness"} {
		rep.set(l+".busy_pct", p.busyPct(l))
	}
	n := int64(tracedPasses)
	rep.set("looplang.mb_per_s", ratio(n*ps.bytes, p.self["looplang"]/int64(time.Microsecond)))
	rep.set("mii.calls_per_ms", p.callsPerMS("mii", "mii.Compute"))
	rep.set("listsched.calls_per_ms", p.callsPerMS("listsched", "listsched.Schedule"))
	rep.set("core.calls_per_ms", p.callsPerMS("core", "core.ModuloScheduleBestEffort"))
	rep.set("codegen.calls_per_ms", p.callsPerMS("codegen", "codegen.GenerateKernel"))
	rep.set("modvar.calls_per_ms", p.callsPerMS("modvar", "modvar.Generate"))
	rep.set("core.check_busy_pct", p.namePct("core.Check"))
	rep.set("vliw.sim_cycles_per_us", ratio(n*ps.simCycles, p.selfName["vliw.RunKernel"]/int64(time.Microsecond)))

	rep.set("mii.mindist_inner", float64(ps.miiInner))
	rep.set("mii.resmii_inspections", float64(ps.resInsp))
	rep.set("mii.rec_bound_pct", pct(ps.recBound, ps.loops))
	c := &ps.sched
	rep.set("core.ii_attempts", float64(c.IIAttempts))
	rep.set("core.sched_steps", float64(c.SchedSteps))
	rep.set("core.steps_useful_ratio", ratio(c.SchedStepsFinal, c.SchedSteps))
	rep.set("core.unschedules", float64(c.Unschedules))
	rep.set("core.findtimeslot_iters", float64(c.FindTimeSlotIters))
	rep.set("core.heightr_relax", float64(c.HeightRRelax))
	rep.set("core.estart_pred_exams", float64(c.EstartPredExams))
	rep.set("core.degraded", float64(ps.degraded))
	rep.set("core.vs_list_ratio", ratio(c.SchedSteps+c.Unschedules, ps.ops))
	rep.set("codegen.kernel_ops", float64(ps.kernelOps))
	rep.set("codegen.rotating_regs", float64(ps.rotRegs))
	rep.set("modvar.unroll_mean", ratio(ps.unrollSum, ps.flatLoops))
	rep.set("modvar.code_size_ops", float64(ps.codeSize))
	rep.set("vliw.sim_cycles", float64(ps.simCycles))
	setRuntime(rep, rt, items)
	setCallLatencies(rep, p)
}

// setCallLatencies records per-call p50/p99 for every traced call name
// with enough samples, in microseconds.
func setCallLatencies(rep *report, p *layerProfile) {
	for name, lat := range p.lat {
		s := sortedCopy(lat)
		for _, q := range []float64{0.5, 0.99} {
			if v, err := percentile(s, q); err == nil {
				rep.detail(fmt.Sprintf("%s_p%g_us", name, 100*q), v, "us")
			}
		}
	}
}

func pct(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func ratio(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// schedule runs the best-effort iterative scheduler and its independent
// legality check, and folds the schedule into the pass tallies. bounds is
// the harness's own MII computation; the scheduler must agree with it and
// never beat it.
func (c *itemCtx) schedule(l *ir.Loop, m *machine.Machine, opts core.Options, bounds *mii.Result) (*core.Schedule, error) {
	var s *core.Schedule
	var deg *core.Degradation
	var err error
	c.call("core.ModuloScheduleBestEffort", func() {
		s, deg, err = core.ModuloScheduleBestEffort(context.Background(), l, m, opts)
	})
	if err != nil {
		return nil, err
	}
	c.call("core.Check", func() { err = core.Check(s) })
	if err != nil {
		return nil, wrongf("loop %s: Check rejected the schedule: %v", l.Name, err)
	}
	if bounds != nil && (s.MII != bounds.MII || s.ResMII != bounds.ResMII) {
		return nil, wrongf("loop %s: scheduler bounds ResMII=%d MII=%d, mii.Compute says %d/%d",
			l.Name, s.ResMII, s.MII, bounds.ResMII, bounds.MII)
	}
	if s.II < s.MII {
		return nil, wrongf("loop %s: II %d below MII %d", l.Name, s.II, s.MII)
	}
	ps := c.ps
	ps.loops++
	if s.II == s.MII {
		ps.atMII++
	}
	ps.deltaII += int64(s.II - s.MII)
	ps.bound += simTrips * int64(s.MII)
	ps.sched.Add(&s.Stats)
	ps.ops += int64(l.NumOps())
	if deg != nil && deg.Degraded() {
		ps.degraded++
	}
	c.digestInts([]int{s.II}, s.Times, s.Alts)
	return s, nil
}

// bounds runs the harness's own Section 2 analysis.
func (c *itemCtx) bounds(l *ir.Loop, m *machine.Machine, delays []int) (*mii.Result, error) {
	var b *mii.Result
	var mc mii.Counters
	var err error
	c.call("mii.Compute", func() { b, err = mii.Compute(l, m, delays, &mc) })
	if err != nil {
		return nil, err
	}
	c.ps.miiInner += mc.MinDistInner
	c.ps.resInsp += mc.ResMIIInspections
	if b.MII > b.ResMII {
		c.ps.recBound++
	}
	return b, nil
}

// kernelCycles is the kernel-only run time at simTrips iterations:
// simTrips+SC-1 passes of II cycles.
func kernelCycles(s *core.Schedule) int64 {
	return (simTrips + int64(s.StageCount()) - 1) * int64(s.II)
}

// runCompile is corpus-compile's item: the msched pipeline from loop text
// to kernel text.
func runCompile(c *itemCtx, it *batchItem) error {
	m := it.mach
	var l *ir.Loop
	var err error
	c.call("looplang.Parse", func() { l, err = looplang.Parse(it.src, m) })
	if err != nil {
		return err
	}
	c.ps.bytes += int64(len(it.src))
	delays, err := ir.Delays(l, m, it.opts.DelayModel)
	if err != nil {
		return err
	}
	b, err := c.bounds(l, m, delays)
	if err != nil {
		return err
	}
	c.call("listsched.Schedule", func() { _, err = listsched.Schedule(l, m, delays) })
	if err != nil {
		return err
	}
	s, err := c.schedule(l, m, it.opts, b)
	if err != nil {
		return err
	}
	c.ps.cycles += kernelCycles(s)
	var k *codegen.Kernel
	c.call("codegen.GenerateKernel", func() { k, err = codegen.GenerateKernel(s) })
	if err != nil {
		return err
	}
	var text string
	c.call("codegen.String", func() { text = k.String() })
	if len(k.Slots) != s.II {
		return wrongf("loop %s: kernel has %d instructions for II %d", l.Name, len(k.Slots), s.II)
	}
	c.ps.noteKernel(k)
	io.WriteString(c.digest, text)
	return nil
}

// noteKernel folds a kernel's size into the pass tallies.
func (ps *passStats) noteKernel(k *codegen.Kernel) {
	for _, slot := range k.Slots {
		ps.kernelOps += int64(len(slot))
	}
	ps.rotRegs += int64(k.Alloc.Size)
}

// runSchedule is schedule-large's item: bounds, iterative scheduling and
// the legality check, with no code generation.
func runSchedule(c *itemCtx, it *batchItem) error {
	delays, err := ir.Delays(it.loop, it.mach, it.opts.DelayModel)
	if err != nil {
		return err
	}
	b, err := c.bounds(it.loop, it.mach, delays)
	if err != nil {
		return err
	}
	s, err := c.schedule(it.loop, it.mach, it.opts, b)
	if err != nil {
		return err
	}
	c.ps.cycles += kernelCycles(s)
	return nil
}

// runSimulate is simulate's item: compile once, run the kernel-only code
// and the explicit prologue/kernel/epilogue schema on the cycle-accurate
// simulator, and compare both with the sequential reference interpreter
// and, for the golden kernels, with the hand-written expected values.
func runSimulate(c *itemCtx, it *batchItem) error {
	l, m := it.loop, it.mach
	s, err := c.schedule(l, m, it.opts, nil)
	if err != nil {
		return err
	}
	var k *codegen.Kernel
	c.call("codegen.GenerateKernel", func() { k, err = codegen.GenerateKernel(s) })
	if err != nil {
		return err
	}
	c.ps.noteKernel(k)

	var u int
	var flat *modvar.Flat
	c.call("modvar.Generate", func() {
		if u, err = modvar.PlanUnroll(s); err == nil {
			flat, err = modvar.Generate(s, modvar.ValidTrips(s.StageCount(), u, simTrips))
		}
	})
	if err != nil {
		return err
	}
	c.ps.flatLoops++
	c.ps.unrollSum += int64(u)
	c.ps.codeSize += int64(flat.CodeSize())

	var ref, kr, fr *vliw.Result
	c.call("vliw.RunReference", func() { ref, err = vliw.RunReference(l, it.spec) })
	if err != nil {
		return err
	}
	c.call("vliw.RunKernel", func() { kr, err = vliw.RunKernel(k, m, it.spec) })
	if err != nil {
		return err
	}
	c.call("vliw.RunFlatAnyTrips", func() { fr, err = vliw.RunFlatAnyTrips(l, m, s, it.spec) })
	if err != nil {
		return err
	}
	if d := diffResults(ref, kr); d != "" {
		return wrongf("loop %s: kernel-only code: %s", l.Name, d)
	}
	if d := diffResults(ref, fr); d != "" {
		return wrongf("loop %s: explicit schema: %s", l.Name, d)
	}
	if it.golden != nil {
		for _, r := range []*vliw.Result{ref, kr, fr} {
			if err := it.golden(r); err != nil {
				return wrongf("loop %s: golden predicate: %v", l.Name, err)
			}
		}
	}
	c.ps.simCycles += kr.Cycles
	c.ps.cycles += kr.Cycles
	c.digestInts([]int{int(kr.Cycles), int(fr.Cycles)})
	return nil
}

// diffResults compares a simulated run with the reference: every memory
// word either side wrote and every register the reference finished with.
// Both sides do the same float64 operations in the same order, so values
// agree bitwise except where an overflow chain made NaN on both.
func diffResults(ref, got *vliw.Result) string {
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for a, rv := range ref.Mem {
		if gv := got.Mem[a]; !same(rv, gv) {
			return fmt.Sprintf("mem[%d] = %v, reference %v", a, gv, rv)
		}
	}
	for a, gv := range got.Mem {
		if _, ok := ref.Mem[a]; !ok && !same(gv, 0) {
			return fmt.Sprintf("mem[%d] = %v, reference never wrote it", a, gv)
		}
	}
	for r, rv := range ref.Final {
		gv, ok := got.Final[r]
		if !ok || !same(rv, gv) {
			return fmt.Sprintf("final r%d = %v, reference %v", r, gv, rv)
		}
	}
	return ""
}
