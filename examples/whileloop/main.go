// Whileloop: software-pipeline a WHILE-loop — trip count unknown at entry.
// New iterations issue speculatively every II cycles; the store is guarded
// by the continue chain so iterations past the exit leave no trace; the
// simulator squashes in-flight work when the branch resolves. This is the
// "loops with early exits" capability the paper's conclusion claims for
// modulo scheduling with predication and speculation.
//
//	i := 0
//	do { out[i] = x[i]; i++ } while x[i-1] < limit
package main

import (
	"context"
	"fmt"
	"log"

	"modsched"
)

func main() {
	m := modsched.Cydra5()

	b := modsched.NewBuilder("whilecopy", m)
	xi := b.Future()
	b.DefineAsImm(xi, "aadd", 8, xi.Back(1))
	x := b.Define("load", xi)
	cont := b.Future()
	b.DefineAs(cont, "cmp", x, b.Invariant("limit"))
	valid := b.Future()
	b.DefineAs(valid, "mul", valid.Back(1), cont.Back(1))
	si := b.Future()
	b.DefineAsImm(si, "aadd", 8, si.Back(1))
	b.SetPred(valid)
	b.Effect("store", si, x)
	b.ClearPred()
	b.Effect("brtop", cont)
	loop, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	sched, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("II=%d SL=%d stages=%d — up to %d iterations in flight, all but one speculative past the branch\n",
		sched.II, sched.Length, sched.StageCount(), sched.StageCount())

	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		log.Fatal(err)
	}

	// Data: ramp values; the loop exits at the first element >= 100.
	mem := map[int64]float64{}
	for i := int64(0); i < 100; i++ {
		mem[4000+8*(i+1)] = float64(i * 4)
	}
	spec := modsched.RunSpec{
		Init: map[modsched.Reg]float64{
			b.RegOf(xi): 4000, b.RegOf(si): 20000,
			b.RegOf(b.Invariant("limit")): 100,
			b.RegOf(cont):                 1,
			b.RegOf(valid):                1,
		},
		Mem: mem,
	}
	got, err := modsched.RunKernelWhile(kern, m, spec, 10000)
	if err != nil {
		log.Fatal(err)
	}

	copied := 0
	for i := int64(0); i < 100; i++ {
		if _, ok := got.Mem[20000+8*(i+1)]; ok {
			copied++
		}
	}
	fmt.Printf("copied %d elements in %d cycles (exit discovered mid-pipeline, speculative stores squashed)\n",
		copied, got.Cycles)
	if copied != 26 { // elements 0..25 (value 100 at index 25 is the exit iteration, still stored)
		log.Fatalf("expected 26 copied elements, got %d", copied)
	}
	fmt.Println("while-loop pipelining verified")
}
