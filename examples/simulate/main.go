// Simulate: the full pipeline, end to end — build a dot-product loop,
// modulo-schedule it, generate both code schemas (kernel-only with
// rotating registers, and explicit prologue/epilogue with modulo variable
// expansion), execute both on the cycle-accurate VLIW simulator, and check
// the results and cycle counts against the sequential reference
// interpreter and the paper's execution-time formula.
package main

import (
	"context"
	"fmt"
	"log"

	"modsched"
)

func main() {
	m := modsched.Cydra5()

	// q += x[i] * z[i]
	b := modsched.NewBuilder("dotproduct", m)
	xi := b.Future()
	b.DefineAsImm(xi, "aadd", 8, xi.Back(1))
	x := b.Define("load", xi)
	zi := b.Future()
	b.DefineAsImm(zi, "aadd", 8, zi.Back(1))
	z := b.Define("load", zi)
	p := b.Define("fmul", x, z)
	q := b.Future()
	b.DefineAs(q, "fadd", q.Back(1), p)
	b.Effect("brtop")
	loop, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Pick a trip count both schemas accept: the explicit schema needs
	// trips ≡ SC-1 (mod U), so plan the unroll factor first.
	planSched, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	u, err := modsched.PlanUnroll(planSched)
	if err != nil {
		log.Fatal(err)
	}
	trips := modsched.ValidTrips(planSched.StageCount(), u, 100)
	fmt.Printf("trip count: %d (rounded for unroll factor U=%d, stage count %d)\n",
		trips, u, planSched.StageCount())

	mem := map[int64]float64{}
	for i := int64(0); i < trips; i++ {
		mem[1000+8*(i+1)] = float64(i + 1)
		mem[9000+8*(i+1)] = 2
	}
	spec := modsched.RunSpec{
		Init: map[modsched.Reg]float64{
			b.RegOf(xi): 1000, b.RegOf(zi): 9000, b.RegOf(q): 0,
		},
		Mem:   mem,
		Trips: trips,
	}

	// Ground truth.
	ref, err := modsched.RunReference(loop, spec)
	if err != nil {
		log.Fatal(err)
	}
	want := ref.Final[b.RegOf(q)]
	fmt.Printf("reference: sum(1..%d)*2 = %.0f\n", trips, want)
	if want != float64(trips*(trips+1)) {
		log.Fatalf("reference interpreter wrong: got %.0f, want %d", want, trips*(trips+1))
	}

	// Schedule.
	sched, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: II=%d MII=%d SL=%d stages=%d\n", sched.II, sched.MII, sched.Length, sched.StageCount())

	// Schema 1: kernel-only code, rotating registers.
	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		log.Fatal(err)
	}
	r1, err := modsched.RunKernel(kern, m, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel-only:       q=%.0f cycles=%d (rotating file: %d registers, code: %d instructions)\n",
		r1.Final[b.RegOf(q)], r1.Cycles, kern.Alloc.Size, kern.II)

	// Schema 2: explicit prologue/epilogue with modulo variable expansion.
	flat, err := modsched.GenerateFlat(sched, trips)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := modsched.RunFlat(flat, m, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prologue/epilogue: q=%.0f cycles=%d (unroll U=%d, code: %d instructions)\n",
		r2.Final[b.RegOf(q)], r2.Cycles, flat.U, flat.CodeSize())

	// The paper's execution-time model.
	model := int64(sched.Length) + (trips-1)*int64(sched.II)
	fmt.Printf("paper model EntryFreq*SL + (LoopFreq-EntryFreq)*II = %d cycles\n", model)

	if r1.Final[b.RegOf(q)] != want || r2.Final[b.RegOf(q)] != want {
		log.Fatal("MISMATCH: pipelined code disagrees with the reference interpreter")
	}
	fmt.Println("all three executions agree")
}
