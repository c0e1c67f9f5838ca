// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per table and figure (Table 3, Figure 6, Table 4, the Section 4.3/5
// headline numbers, Figure 1 / Table 2 are definitional and covered by
// unit tests) — plus ablation benchmarks for the design decisions the
// paper discusses: the HeightR priority, the per-SCC MinDist RecMII, the
// delay model, eviction versus restart, and the BudgetRatio.
//
// Custom metrics report schedule quality alongside time:
// deltaII/loop (average achieved II minus MII), dilation% (aggregate
// execution-time increase over the lower bound), and steps/op (operation
// scheduling steps per operation).
package modsched_test

import (
	"context"
	"testing"

	"modsched"
	"modsched/internal/core"
	"modsched/internal/experiments"
	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// benchCorpus returns a fixed, modest corpus so benchmark iterations are
// comparable; full-scale numbers come from cmd/experiments.
func benchCorpus(b *testing.B, m *machine.Machine) []*ir.Loop {
	b.Helper()
	loops, err := experiments.SmallCorpus(m, 200)
	if err != nil {
		b.Fatal(err)
	}
	return loops
}

func reportQuality(b *testing.B, cr *experiments.CorpusResult) {
	b.Helper()
	var delta int64
	for _, r := range cr.Loops {
		delta += int64(r.II - r.MII)
	}
	b.ReportMetric(float64(delta)/float64(len(cr.Loops)), "deltaII/loop")
	b.ReportMetric(100*cr.AggregateDilation(), "dilation%")
	b.ReportMetric(cr.AggregateInefficiency(), "steps/op")
}

// BenchmarkTable3Corpus regenerates the Table 3 protocol: schedule the
// corpus at BudgetRatio 6 with exact RecMII, then compute the distribution
// rows.
func BenchmarkTable3Corpus(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	var cr *experiments.CorpusResult
	for i := 0; i < b.N; i++ {
		var err error
		cr, err = experiments.RunCorpus(loops, m, 6, true)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Table3(cr)
	}
	reportQuality(b, cr)
}

// BenchmarkFigure6Sweep regenerates the Figure 6 BudgetRatio sweep.
func BenchmarkFigure6Sweep(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	ratios := []float64{1.0, 1.5, 2.0, 3.0, 4.0}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6Sweep(loops, m, ratios)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(ratios) {
			b.Fatal("missing sweep points")
		}
	}
}

// BenchmarkTable4Complexity regenerates the Table 4 empirical complexity
// fits (corpus run at BudgetRatio 2 plus least-squares fits).
func BenchmarkTable4Complexity(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	for i := 0; i < b.N; i++ {
		cr, err := experiments.RunCorpus(loops, m, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		t4 := experiments.ComputeTable4(cr)
		if t4.Edges.A <= 0 {
			b.Fatal("degenerate fit")
		}
	}
}

// BenchmarkSummaryHeadline regenerates the Section 4.3/5 headline numbers
// (BudgetRatio 2). RunCorpus schedules on the worker pool (one worker per
// CPU) by default; BenchmarkSummaryHeadlineSeq pins workers to 1, so the
// pair measures the harness's parallel speedup. Quality metrics must not
// differ between the two — the pool merges results in input order.
func BenchmarkSummaryHeadline(b *testing.B) {
	benchSummaryHeadline(b, 0)
}

// BenchmarkSummaryHeadlineSeq is the sequential (workers=1) baseline for
// BenchmarkSummaryHeadline.
func BenchmarkSummaryHeadlineSeq(b *testing.B) {
	benchSummaryHeadline(b, 1)
}

func benchSummaryHeadline(b *testing.B, workers int) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	ctx := context.Background()
	var cr *experiments.CorpusResult
	for i := 0; i < b.N; i++ {
		var err error
		cr, err = experiments.RunCorpusWorkers(ctx, loops, m, 2, false, workers)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Summarize(cr)
	}
	reportQuality(b, cr)
}

// BenchmarkListVsModulo regenerates the Section 5 cost comparison against
// acyclic list scheduling.
func BenchmarkListVsModulo(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	var ratio float64
	for i := 0; i < b.N; i++ {
		listSteps, modSteps, modUnsch, err := experiments.ListVsModulo(loops, m, 2)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(modSteps+modUnsch) / float64(listSteps)
	}
	b.ReportMetric(ratio, "cost-vs-list")
}

// BenchmarkScheduleLivermore times scheduling the Livermore suite alone
// (the per-loop cost a compiler pays).
func BenchmarkScheduleLivermore(b *testing.B) {
	m := modsched.Cydra5()
	loops, err := modsched.LivermoreKernels(m)
	if err != nil {
		b.Fatal(err)
	}
	opts := modsched.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := modsched.Compile(context.Background(), l, m, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMII times the Section 2 lower-bound computation alone.
func BenchmarkMII(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	delays := make([][]int, len(loops))
	for i, l := range loops {
		d, err := ir.Delays(l, m, ir.VLIWDelays)
		if err != nil {
			b.Fatal(err)
		}
		delays[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, l := range loops {
			if _, err := mii.Compute(l, m, delays[j], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Ablations ----------------------------------------------------------

// BenchmarkAblationPriority compares the paper's HeightR priority against
// FIFO and the distance-blind depth priority.
func BenchmarkAblationPriority(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	for _, pk := range []core.PriorityKind{core.PriorityHeightR, core.PriorityFIFO, core.PriorityDepth, core.PriorityRecFirst} {
		pk := pk
		b.Run(pk.String(), func(b *testing.B) {
			var cr *experiments.CorpusResult
			for i := 0; i < b.N; i++ {
				var delta int64
				opts := core.DefaultOptions()
				opts.Priority = pk
				res := &experiments.CorpusResult{Machine: m.Name, BudgetRatio: opts.BudgetRatio}
				for _, l := range loops {
					s, err := core.ModuloSchedule(l, m, opts)
					if err != nil {
						b.Fatal(err)
					}
					delta += int64(s.II - s.MII)
					res.Loops = append(res.Loops, experiments.LoopResult{
						N: l.NumRealOps(), MII: s.MII, II: s.II, SL: s.Length, MinSL: 1,
						StepsTotal: s.Stats.SchedSteps, StepsFinal: s.Stats.SchedStepsFinal,
						EntryFreq: l.EntryFreq, LoopFreq: l.LoopFreq, Counters: s.Stats,
					})
				}
				cr = res
			}
			reportQuality(b, cr)
		})
	}
}

// BenchmarkAblationRecMII compares the MinDist RecMII against the Cydra 5
// compiler's circuit-enumeration approach.
func BenchmarkAblationRecMII(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	delays := make([][]int, len(loops))
	for i, l := range loops {
		d, err := ir.Delays(l, m, ir.VLIWDelays)
		if err != nil {
			b.Fatal(err)
		}
		delays[i] = d
	}
	b.Run("mindist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, l := range loops {
				if _, err := mii.ExactRecMII(l, delays[j], nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("circuits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, l := range loops {
				if _, _, err := mii.RecMIIByCircuits(l, delays[j], 100000); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationSCC compares the per-SCC MinDist decomposition against
// running ComputeMinDist on the whole graph.
func BenchmarkAblationSCC(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	type prep struct {
		l      *ir.Loop
		delays []int
		resMII int
	}
	preps := make([]prep, len(loops))
	for i, l := range loops {
		d, err := ir.Delays(l, m, ir.VLIWDelays)
		if err != nil {
			b.Fatal(err)
		}
		r, _, err := mii.ResMII(l, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		preps[i] = prep{l: l, delays: d, resMII: r}
	}
	b.Run("per-scc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range preps {
				if _, err := mii.RecurrenceMII(p.l, p.delays, p.resMII, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("whole-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range preps {
				if _, err := mii.RecurrenceMIIWholeGraph(p.l, p.delays, p.resMII, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationDelayModel compares the VLIW delay model against the
// conservative superscalar delays (Table 1's two columns).
func BenchmarkAblationDelayModel(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	for _, dm := range []ir.DelayModel{ir.VLIWDelays, ir.ConservativeDelays} {
		dm := dm
		b.Run(dm.String(), func(b *testing.B) {
			var iiSum int64
			for i := 0; i < b.N; i++ {
				iiSum = 0
				opts := core.DefaultOptions()
				opts.DelayModel = dm
				for _, l := range loops {
					s, err := core.ModuloSchedule(l, m, opts)
					if err != nil {
						b.Fatal(err)
					}
					iiSum += int64(s.II)
				}
			}
			b.ReportMetric(float64(iiSum)/float64(len(loops)), "II/loop")
		})
	}
}

// BenchmarkAblationRestart compares iterative eviction against restarting
// the II attempt on the first FindTimeSlot failure.
func BenchmarkAblationRestart(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	for _, restart := range []bool{false, true} {
		restart := restart
		name := "evict"
		if restart {
			name = "restart"
		}
		b.Run(name, func(b *testing.B) {
			var delta int64
			for i := 0; i < b.N; i++ {
				delta = 0
				opts := core.DefaultOptions()
				opts.RestartOnFailure = restart
				for _, l := range loops {
					s, err := core.ModuloSchedule(l, m, opts)
					if err != nil {
						b.Fatal(err)
					}
					delta += int64(s.II - s.MII)
				}
			}
			b.ReportMetric(float64(delta)/float64(len(loops)), "deltaII/loop")
		})
	}
}

// BenchmarkAblationAlgorithm pits iterative modulo scheduling against
// Huff's lifetime-sensitive slack scheduling on the same framework: the
// paper's position is that the algorithms tie on schedule quality and IMS
// wins on compile-time cost (slack recomputes a full MinDist per II
// attempt and maintains Estart/Lstart per pick).
func BenchmarkAblationAlgorithm(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	type fn func(*ir.Loop, *machine.Machine, core.Options) (*core.Schedule, error)
	algos := []struct {
		name string
		run  fn
	}{
		{"iterative", core.ModuloSchedule},
		{"slack", core.ModuloScheduleSlack},
	}
	for _, a := range algos {
		a := a
		b.Run(a.name, func(b *testing.B) {
			var delta, rotSum int64
			for i := 0; i < b.N; i++ {
				delta, rotSum = 0, 0
				for _, l := range loops {
					s, err := a.run(l, m, core.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					delta += int64(s.II - s.MII)
					k, err := modsched.GenerateKernel(s)
					if err != nil {
						b.Fatal(err)
					}
					rotSum += int64(k.Alloc.Size)
				}
			}
			b.ReportMetric(float64(delta)/float64(len(loops)), "deltaII/loop")
			b.ReportMetric(float64(rotSum)/float64(len(loops)), "rotregs/loop")
		})
	}
}

// BenchmarkAblationPlacement compares early (Estart-first) slot scanning
// against the lifetime-sensitive late variant; the register-pressure
// consequences are measured by experiments.RegPressureStudy.
func BenchmarkAblationPlacement(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	for _, late := range []bool{false, true} {
		late := late
		name := "early"
		if late {
			name = "late"
		}
		b.Run(name, func(b *testing.B) {
			var rotSum, delta int64
			for i := 0; i < b.N; i++ {
				rotSum, delta = 0, 0
				opts := core.DefaultOptions()
				opts.PlaceLate = late
				for _, l := range loops {
					s, err := core.ModuloSchedule(l, m, opts)
					if err != nil {
						b.Fatal(err)
					}
					k, err := modsched.GenerateKernel(s)
					if err != nil {
						b.Fatal(err)
					}
					rotSum += int64(k.Alloc.Size)
					delta += int64(s.II - s.MII)
				}
			}
			b.ReportMetric(float64(rotSum)/float64(len(loops)), "rotregs/loop")
			b.ReportMetric(float64(delta)/float64(len(loops)), "deltaII/loop")
		})
	}
}

// BenchmarkAblationBudget sweeps BudgetRatio (the Figure 6 axis) at bench
// granularity.
func BenchmarkAblationBudget(b *testing.B) {
	m := machine.Cydra5()
	loops := benchCorpus(b, m)
	for _, br := range []float64{1, 2, 4, 6} {
		br := br
		b.Run(fmtFloat(br), func(b *testing.B) {
			var cr *experiments.CorpusResult
			for i := 0; i < b.N; i++ {
				var err error
				cr, err = experiments.RunCorpus(loops, m, br, false)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, cr)
		})
	}
}

func fmtFloat(f float64) string {
	switch f {
	case 1:
		return "ratio1"
	case 2:
		return "ratio2"
	case 4:
		return "ratio4"
	case 6:
		return "ratio6"
	}
	return "ratio"
}

// BenchmarkEndToEnd times the full pipeline on the dot-product loop:
// schedule, generate kernel-only code, and simulate 1000 iterations.
func BenchmarkEndToEnd(b *testing.B) {
	m := modsched.Cydra5()
	bl := modsched.NewBuilder("dot", m)
	xi := bl.Future()
	bl.DefineAsImm(xi, "aadd", 8, xi.Back(1))
	x := bl.Define("load", xi)
	zi := bl.Future()
	bl.DefineAsImm(zi, "aadd", 8, zi.Back(1))
	z := bl.Define("load", zi)
	p := bl.Define("fmul", x, z)
	q := bl.Future()
	bl.DefineAs(q, "fadd", q.Back(1), p)
	bl.Effect("brtop")
	loop, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	const trips = 1000
	mem := map[int64]float64{}
	for i := int64(0); i < trips; i++ {
		mem[1000+8*(i+1)] = 1
		mem[90000+8*(i+1)] = 2
	}
	spec := modsched.RunSpec{
		Init:  map[modsched.Reg]float64{bl.RegOf(xi): 1000, bl.RegOf(zi): 90000, bl.RegOf(q): 0},
		Mem:   mem,
		Trips: trips,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		k, err := modsched.GenerateKernel(s)
		if err != nil {
			b.Fatal(err)
		}
		r, err := modsched.RunKernel(k, m, spec)
		if err != nil {
			b.Fatal(err)
		}
		if r.Final[bl.RegOf(q)] != 2*trips {
			b.Fatalf("wrong result %v", r.Final[bl.RegOf(q)])
		}
	}
}
