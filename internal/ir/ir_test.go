package ir

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"modsched/internal/machine"
)

func tiny(t testing.TB) *machine.Machine {
	t.Helper()
	return machine.Tiny()
}

// TestEdgeDelayTable1 checks every cell of Table 1, both columns.
func TestEdgeDelayTable1(t *testing.T) {
	const predLat, succLat = 5, 3
	cases := []struct {
		kind  DepKind
		model DelayModel
		want  int
	}{
		{Flow, VLIWDelays, 5},
		{Flow, ConservativeDelays, 5},
		{Anti, VLIWDelays, 1 - succLat},       // 1 - Latency(succ) = -2
		{Anti, ConservativeDelays, 0},         // conservative column
		{Output, VLIWDelays, 1 + 5 - succLat}, // 1 + pred - succ = 3
		{Output, ConservativeDelays, 5},       // Latency(pred)
		{Control, VLIWDelays, 5},
		{Control, ConservativeDelays, 5},
		{Mem, VLIWDelays, 1},
		{Mem, ConservativeDelays, 1},
	}
	for _, c := range cases {
		if got := EdgeDelay(c.kind, predLat, succLat, c.model); got != c.want {
			t.Errorf("EdgeDelay(%v, %v) = %d, want %d", c.kind, c.model, got, c.want)
		}
	}
}

// TestAntiDelayCanBeNegative: the paper notes anti/output delays go
// negative under the VLIW model when the successor latency is large.
func TestAntiDelayCanBeNegative(t *testing.T) {
	if d := EdgeDelay(Anti, 1, 20, VLIWDelays); d != -19 {
		t.Errorf("anti delay = %d, want -19", d)
	}
	if d := EdgeDelay(Anti, 1, 20, ConservativeDelays); d != 0 {
		t.Errorf("conservative anti delay = %d, want 0", d)
	}
}

func TestDelaysOverride(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("ov", m)
	x := b.Define("add", b.Invariant("a"))
	st := b.Effect("store", b.Invariant("p"), x)
	ld := b.Define("load", b.Invariant("p"))
	b.DepDelay(st, b.OpOf(ld), Mem, 0, 7)
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays, err := Delays(l, m, VLIWDelays)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for ei, e := range l.Edges {
		if e.Kind == Mem {
			found = true
			if delays[ei] != 7 {
				t.Errorf("mem edge delay = %d, want override 7", delays[ei])
			}
		}
	}
	if !found {
		t.Fatal("mem edge missing")
	}
}

func TestBuilderFlowEdgesAndDistances(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("flow", m)
	s := b.Future()
	x := b.Define("load", b.Invariant("p"))
	v := b.DefineAs(s, "fadd", s.Back(1), x)
	b.Effect("store", b.Invariant("q"), v.Back(2))
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Expected flow edges: load->fadd dist 0, fadd->fadd dist 1 (self),
	// fadd->store dist 2.
	type key struct{ from, to, dist int }
	want := map[key]bool{}
	defs := l.DefOf()
	loadID := defs[l.Ops[1].Dest]
	faddID := 2
	storeID := 3
	want[key{loadID, faddID, 0}] = true
	want[key{faddID, faddID, 1}] = true
	want[key{faddID, storeID, 2}] = true
	got := map[key]bool{}
	for _, e := range l.Edges {
		if e.Kind == Flow {
			got[key{e.From, e.To, e.Distance}] = true
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing flow edge %+v; have %v", k, got)
		}
	}
}

func TestBuilderStartStopBracketing(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("bracket", m)
	b.Define("add", b.Invariant("a"))
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if l.Ops[0].Opcode != "START" || l.Ops[l.Stop()].Opcode != "STOP" {
		t.Fatal("START/STOP not bracketing")
	}
	// Every real op must have a Control edge from START and to STOP.
	fromStart := map[int]bool{}
	toStop := map[int]bool{}
	for _, e := range l.Edges {
		if e.Kind == Control && e.From == 0 {
			fromStart[e.To] = true
		}
		if e.Kind == Control && e.To == l.Stop() {
			toStop[e.From] = true
		}
	}
	for _, op := range l.RealOps() {
		if !fromStart[op.ID] || !toStop[op.ID] {
			t.Errorf("op %d missing START/STOP bracketing edges", op.ID)
		}
	}
}

func TestBuilderPredicatedDefGetsSelfEdge(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("pred", m)
	p := b.Define("cmp", b.Invariant("a"), b.Invariant("b"))
	b.SetPred(p)
	v := b.Define("copy", b.Invariant("c"))
	b.ClearPred()
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	id := -1
	for _, op := range l.RealOps() {
		if op.Opcode == "copy" {
			id = op.ID
		}
	}
	found := false
	for _, e := range l.Edges {
		if e.From == id && e.To == id && e.Kind == Flow && e.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Error("predicated definition missing implicit distance-1 self edge")
	}
	_ = v
}

func TestBuilderErrors(t *testing.T) {
	m := tiny(t)

	b := NewBuilder("unbound", m)
	f := b.Future()
	b.Define("add", f)
	b.Effect("brtop")
	if _, err := b.Build(); err == nil {
		t.Error("unbound future accepted")
	}

	b = NewBuilder("badop", m)
	b.Define("frobnicate", b.Invariant("a"))
	if _, err := b.Build(); err == nil {
		t.Error("unknown opcode accepted")
	}

	b = NewBuilder("pseudo", m)
	b.Effect("START")
	if _, err := b.Build(); err == nil {
		t.Error("explicit pseudo-op accepted")
	}

	b = NewBuilder("empty", m)
	if _, err := b.Build(); err == nil {
		t.Error("empty loop accepted")
	}

	b = NewBuilder("doublebind", m)
	f = b.Future()
	b.DefineAs(f, "add", b.Invariant("a"))
	b.DefineAs(f, "add", b.Invariant("a"))
	b.Effect("brtop")
	if _, err := b.Build(); err == nil {
		t.Error("double-bound future accepted")
	}

	b = NewBuilder("zeroval", m)
	b.Define("add", Value{})
	b.Effect("brtop")
	if _, err := b.Build(); err == nil {
		t.Error("zero Value operand accepted")
	}
}

func TestInvariantIdentity(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("inv", m)
	a1 := b.Invariant("a")
	a2 := b.Invariant("a")
	c := b.Invariant("c")
	if b.RegOf(a1) != b.RegOf(a2) {
		t.Error("same invariant name must map to the same register")
	}
	if b.RegOf(a1) == b.RegOf(c) {
		t.Error("distinct invariants must get distinct registers")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("ok", m)
	b.Define("add", b.Invariant("a"))
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	bad := l.Clone()
	bad.Edges = append(bad.Edges, Edge{From: 0, To: 99})
	if err := bad.Validate(m); err == nil {
		t.Error("out-of-range edge accepted")
	}

	bad = l.Clone()
	bad.Edges = append(bad.Edges, Edge{From: 1, To: 1, Distance: -1})
	if err := bad.Validate(m); err == nil {
		t.Error("negative distance accepted")
	}

	for _, e := range []Edge{{From: 1, To: 0, Distance: 1}, {From: l.Stop(), To: 1, Distance: 1}} {
		bad = l.Clone()
		bad.Edges = append(bad.Edges, e)
		if err := bad.Validate(m); err == nil {
			t.Errorf("edge %d -> %d into START or out of STOP accepted", e.From, e.To)
		}
	}

	bad = l.Clone()
	bad.EntryFreq, bad.LoopFreq = 10, 5
	if err := bad.Validate(m); err == nil {
		t.Error("inconsistent profile accepted")
	}

	bad = l.Clone()
	bad.Ops[1].ID = 7
	if err := bad.Validate(m); err == nil {
		t.Error("wrong op ID accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("clone", m)
	x := b.Define("load", b.Invariant("p"))
	st := b.Effect("store", b.Invariant("q"), x)
	b.DepDelay(st, st, Mem, 1, 3)
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := l.Clone()
	c.Ops[1].Srcs[0] = 99
	c.Edges[0].Distance = 42
	for _, e := range c.Edges {
		if e.DelayOverride != nil {
			*e.DelayOverride = 1000
		}
	}
	if l.Ops[1].Srcs[0] == 99 || l.Edges[0].Distance == 42 {
		t.Error("Clone shares op/edge storage")
	}
	for _, e := range l.Edges {
		if e.DelayOverride != nil && *e.DelayOverride == 1000 {
			t.Error("Clone shares delay override storage")
		}
	}
}

func TestAdjacencyMatchesEdges(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("adj", m)
	x := b.Define("load", b.Invariant("p"))
	y := b.Define("fadd", x, x)
	b.Effect("store", b.Invariant("q"), y)
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	adj := l.BuildAdjacency()
	count := 0
	for v := range l.Ops {
		count += len(adj.Succs[v])
	}
	if count != len(l.Edges) {
		t.Errorf("adjacency covers %d edges, want %d", count, len(l.Edges))
	}
	for ei, e := range l.Edges {
		found := false
		for _, x := range adj.Succs[e.From] {
			if x == ei {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %d missing from Succs[%d]", ei, e.From)
		}
		found = false
		for _, x := range adj.Preds[e.To] {
			if x == ei {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %d missing from Preds[%d]", ei, e.To)
		}
	}
}

func TestStringRendersOps(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("render", m)
	p := b.Define("cmp", b.Invariant("a"), b.Invariant("b"))
	b.SetPred(p)
	b.Define("copy", b.Invariant("c"))
	b.ClearPred()
	b.Effect("brtop")
	b.Comment("the branch")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := l.String()
	for _, want := range []string{"loop render", "cmp", "copy", "if p", "the branch", "flow(1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// Property: for any latency pair, conservative delays are never below -0
// and flow delay equals predecessor latency in both models.
func TestDelayProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		pl, sl := int(a%40)+1, int(b%40)+1
		if EdgeDelay(Anti, pl, sl, ConservativeDelays) != 0 {
			return false
		}
		if EdgeDelay(Flow, pl, sl, VLIWDelays) != pl {
			return false
		}
		if EdgeDelay(Output, pl, sl, ConservativeDelays) != pl {
			return false
		}
		// VLIW anti/output are always <= their conservative versions.
		return EdgeDelay(Anti, pl, sl, VLIWDelays) <= 0 &&
			EdgeDelay(Output, pl, sl, VLIWDelays) <= pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsDoubleDefinition(t *testing.T) {
	m := tiny(t)
	b := NewBuilder("dsa", m)
	b.Define("add", b.Invariant("a"))
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bad := l.Clone()
	// Force two ops to write the same register.
	bad.Ops[2].Dest = bad.Ops[1].Dest
	if err := bad.Validate(m); err == nil {
		t.Error("double definition accepted (DSA violation)")
	}
}

// TestParseDelayModelRoundTrip pins ParseDelayModel as the inverse of
// String for every delay model, and the exact diagnostic for an unknown
// name (msched and the server both print it verbatim).
func TestParseDelayModelRoundTrip(t *testing.T) {
	for _, m := range []DelayModel{VLIWDelays, ConservativeDelays} {
		got, err := ParseDelayModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseDelayModel(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"", "VLIW", "DelayModel(2)", "superscalar"} {
		_, err := ParseDelayModel(bad)
		if want := "unknown delay model " + strconv.Quote(bad); err == nil || err.Error() != want {
			t.Errorf("ParseDelayModel(%q) error = %v; want %s", bad, err, want)
		}
	}
}
