// Quickstart: build a DAXPY loop with the builder API, modulo-schedule it
// for the Cydra 5-like machine, and print the software-pipelined kernel.
package main

import (
	"context"
	"fmt"
	"log"

	"modsched"
)

func main() {
	m := modsched.Cydra5()

	// y[i] += a * x[i], with back-substituted address arithmetic
	// (ai = ai[-3] + 24) so the latency-3 address adds never bound the II.
	b := modsched.NewBuilder("daxpy", m)
	xi := b.Future()
	b.DefineAsImm(xi, "aadd", 24, xi.Back(3))
	x := b.Define("load", xi)
	yi := b.Future()
	b.DefineAsImm(yi, "aadd", 24, yi.Back(3))
	y := b.Define("load", yi)
	a := b.Invariant("a")
	t1 := b.Define("fmul", a, x)
	t2 := b.Define("fadd", y, t1)
	si := b.Future()
	b.DefineAsImm(si, "aadd", 24, si.Back(3))
	b.Effect("store", si, t2)
	b.Effect("brtop")
	b.SetProfile(1, 10000)

	loop, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Lower bounds, then the schedule itself.
	bounds, err := modsched.ComputeMII(loop, m, modsched.VLIWDelays)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ResMII=%d MII=%d\n", bounds.ResMII, bounds.MII)

	sched, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("II=%d SL=%d stages=%d\n", sched.II, sched.Length, sched.StageCount())
	fmt.Printf("steady state: one iteration completes every %d cycles (vs %d cycles unpipelined)\n\n",
		sched.II, sched.Length)

	// Kernel-only code for a machine with rotating registers.
	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(kern.String())
}
