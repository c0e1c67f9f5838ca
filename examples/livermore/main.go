// Livermore: modulo-schedule the hand-translated Livermore Fortran Kernel
// suite on two machine models and report, per kernel, the achieved II
// against the lower bound and the speedup over unpipelined execution.
package main

import (
	"context"
	"fmt"
	"log"

	"modsched"
)

func main() {
	for _, m := range []*modsched.Machine{
		modsched.Cydra5(),
		modsched.Generic(modsched.DefaultUnitConfig()),
	} {
		loops, err := modsched.LivermoreKernels(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", m.Name)
		fmt.Printf("%-32s %4s %5s %4s %4s %6s %8s\n", "kernel", "ops", "MII", "II", "SL", "stages", "speedup")
		for _, l := range loops {
			sched, err := modsched.Compile(context.Background(), l, m, modsched.DefaultOptions())
			if err != nil {
				log.Fatalf("%s: %v", l.Name, err)
			}
			// Speedup for a long-running loop: unpipelined iterations cost
			// SL cycles each; pipelined ones II.
			speedup := float64(sched.Length) / float64(sched.II)
			marker := ""
			if sched.II > sched.MII {
				marker = fmt.Sprintf("  (DeltaII=%d)", sched.II-sched.MII)
			}
			fmt.Printf("%-32s %4d %5d %4d %4d %6d %7.1fx%s\n",
				l.Name, l.NumRealOps(), sched.MII, sched.II, sched.Length, sched.StageCount(), speedup, marker)
		}
		fmt.Println()
	}
}
