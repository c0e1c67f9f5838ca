// Ifconversion: software-pipeline a loop that contains control flow. The
// structured body (with a real if/else) is IF-converted into a single
// predicated block, modulo-scheduled, and executed on the simulator; the
// results are checked against direct structured execution.
//
//	for i := range x {
//	    if x[i] < cap { y = x[i] } else { y = cap; clipped++ }
//	    out[i] = y
//	}
package main

import (
	"context"
	"fmt"
	"log"

	"modsched"
)

func main() {
	m := modsched.Cydra5()

	rgn := &modsched.Region{
		Name: "clip",
		Stmts: []modsched.Stmt{
			modsched.Assign{Dest: "xi", Opcode: "aadd", Srcs: []modsched.Ref{{Name: "xi", Back: 1}}, Imm: 8},
			modsched.Assign{Dest: "x", Opcode: "load", Srcs: []modsched.Ref{{Name: "xi"}}},
			modsched.Assign{Dest: "c", Opcode: "cmp", Srcs: []modsched.Ref{{Name: "x"}, {Name: "cap"}}},
			modsched.IfStmt{
				Cond: modsched.Ref{Name: "c"},
				Then: []modsched.Stmt{
					modsched.Assign{Dest: "y", Opcode: "copy", Srcs: []modsched.Ref{{Name: "x"}}},
				},
				Else: []modsched.Stmt{
					modsched.Assign{Dest: "y", Opcode: "copy", Srcs: []modsched.Ref{{Name: "cap"}}},
					modsched.Assign{Dest: "clipped", Opcode: "add", Srcs: []modsched.Ref{{Name: "clipped", Back: 1}}, Imm: 1},
				},
			},
			modsched.Assign{Dest: "si", Opcode: "aadd", Srcs: []modsched.Ref{{Name: "si", Back: 1}}, Imm: 8},
			modsched.StoreStmt{Addr: modsched.Ref{Name: "si"}, Val: modsched.Ref{Name: "y"}},
		},
		EntryFreq: 1, LoopFreq: 100000,
	}

	const trips = 64
	mem := map[int64]float64{}
	for i := int64(0); i < trips; i++ {
		mem[1000+8*(i+1)] = float64((i * 7) % 13)
	}
	spec := modsched.RegionSpec{
		Vars:       map[string]float64{"xi": 1000, "si": 9000, "clipped": 0},
		Invariants: map[string]float64{"cap": 6},
		Mem:        mem,
		Trips:      trips,
	}

	// Ground truth: execute the structured form directly.
	want, err := modsched.RunStructured(rgn, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structured execution: clipped %v of %d elements\n", want.Vars["clipped"], trips)

	// IF-convert and pipeline.
	res, err := modsched.IfConvert(rgn, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("if-converted: %d predicated ops in one block\n", res.Loop.NumRealOps())

	sched, err := modsched.Compile(context.Background(), res.Loop, m, modsched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipelined: II=%d MII=%d SL=%d — one element every %d cycles despite the branch\n",
		sched.II, sched.MII, sched.Length, sched.II)

	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		log.Fatal(err)
	}
	got, err := modsched.RunKernel(kern, m, res.ToRunSpec(spec))
	if err != nil {
		log.Fatal(err)
	}
	for a, w := range want.Mem {
		if got.Mem[a] != w {
			log.Fatalf("MISMATCH at mem[%d]: %v vs %v", a, got.Mem[a], w)
		}
	}
	if got.Final[res.Regs["clipped"]] != want.Vars["clipped"] {
		log.Fatalf("clipped count mismatch")
	}
	fmt.Println("pipelined execution matches the structured semantics")
}
