// Custommachine: describe a processor from scratch — a dual-cluster DSP
// with a shared writeback bus and a non-pipelined MAC unit — and watch the
// scheduler work around its complex reservation tables and choose between
// alternatives.
package main

import (
	"context"
	"fmt"
	"log"

	"modsched"
)

func buildDSP() *modsched.Machine {
	m := modsched.NewMachine("dsp")
	aluA := m.AddResource("ClusterA.ALU")
	aluB := m.AddResource("ClusterB.ALU")
	mac := m.AddResource("MAC")
	wb := m.AddResource("WritebackBus")
	mem := m.AddResource("MemPort")
	br := m.AddResource("Sequencer")

	// ALU ops run on either cluster but share the writeback bus one cycle
	// before completion: a complex table with two alternatives.
	aluTable := func(alu modsched.Resource) modsched.ReservationTable {
		return modsched.MustTable(
			modsched.ResourceUse{Resource: alu, Time: 0},
			modsched.ResourceUse{Resource: wb, Time: 1},
		)
	}
	aluAlts := []modsched.Alternative{
		{Name: "clusterA", Table: aluTable(aluA)},
		{Name: "clusterB", Table: aluTable(aluB)},
	}
	for _, name := range []string{"add", "sub", "fadd", "fsub", "cmp", "copy", "aadd", "asub", "pset", "preset"} {
		m.MustAddOpcode(&modsched.Opcode{Name: name, Latency: 2, Alternatives: aluAlts})
	}
	// The MAC is not pipelined: multiply blocks it for three cycles, then
	// uses the writeback bus.
	m.MustAddOpcode(&modsched.Opcode{Name: "fmul", Latency: 4, Alternatives: []modsched.Alternative{{
		Name: "mac",
		Table: modsched.MustTable(
			modsched.ResourceUse{Resource: mac, Time: 0},
			modsched.ResourceUse{Resource: mac, Time: 1},
			modsched.ResourceUse{Resource: mac, Time: 2},
			modsched.ResourceUse{Resource: wb, Time: 3},
		),
	}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "mul", Latency: 4, Alternatives: m.MustOpcode("fmul").Alternatives})
	m.MustAddOpcode(&modsched.Opcode{Name: "load", Latency: 4, Alternatives: []modsched.Alternative{{
		Name: "mem", Table: modsched.SimpleTableFor(mem),
	}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "store", Latency: 1, Alternatives: []modsched.Alternative{{
		Name: "mem", Table: modsched.SimpleTableFor(mem),
	}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "brtop", Latency: 1, Alternatives: []modsched.Alternative{{
		Name: "seq", Table: modsched.SimpleTableFor(br),
	}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "START", Latency: 0,
		Alternatives: []modsched.Alternative{{Name: "none"}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "STOP", Latency: 0,
		Alternatives: []modsched.Alternative{{Name: "none"}}})
	return m
}

func main() {
	m := buildDSP()
	if err := m.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("MAC reservation table (non-pipelined, shared writeback):")
	fmt.Println(m.TableString(m.MustOpcode("fmul").Alternatives[0].Table))

	src := `
loop fir4
profile 1 100000

xi = aadd xi@1, #8
x0 = load xi
a0 = fmul c0, x0
a1 = fmul c1, x0@1
a2 = fmul c2, x0@2
a3 = fmul c3, x0@3
s0 = fadd a0, a1
s1 = fadd a2, a3
s2 = fadd s0, s1
yi = aadd yi@1, #8
store yi, s2
brtop
`
	loop, err := modsched.ParseLoop(src, m)
	if err != nil {
		log.Fatal(err)
	}
	bounds, err := modsched.ComputeMII(loop, m, modsched.VLIWDelays)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FIR-4 on %s: ResMII=%d MII=%d II=%d SL=%d\n",
		m.Name, bounds.ResMII, bounds.MII, sched.II, sched.Length)
	fmt.Println("(four non-pipelined multiplies of 3 cycles each force ResMII >= 12)")

	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(kern.String())
}
