package main

import (
	"math"
	"testing"
)

// A front span with a primary replica call and a hedged duplicate that
// overlaps it: the front's self time is what neither covers, counted once.
func TestSelfTimeWithOverlappingHedge(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "item", Start: 0, End: 120},
		{ID: 2, Parent: 1, Name: "proxy.Handler", Start: 10, End: 110},
		{ID: 3, Parent: 2, Name: "server.Handler", Start: 20, End: 70},   // primary
		{ID: 4, Parent: 2, Name: "server.Handler", Start: 50, End: 100},  // hedge, overlaps 20 ns
		{ID: 5, Parent: 2, Name: "server.Handler", Start: 105, End: 130}, // runs past its parent
	}
	st := selfTimes(spans)
	if st[1] != 20 {
		t.Errorf("item self = %d, want 20", st[1])
	}
	// Covered: [20,100) merged from the two overlapping children, plus
	// [105,110) clipped from the third: 85 of 100.
	if st[2] != 15 {
		t.Errorf("front self = %d, want 15", st[2])
	}
	if st[3] != 50 || st[4] != 50 {
		t.Errorf("replica self = %d, %d; want 50 each", st[3], st[4])
	}

	p := profile(spans)
	if p.busy != 120 {
		t.Fatalf("busy = %d, want the item's 120", p.busy)
	}
	// Both hedged calls did work, so the layers together exceed the
	// item's own duration.
	if got := p.busyPct("server"); math.Abs(got-100*125.0/120) > 1e-9 {
		t.Errorf("server busy = %v%%", got)
	}
	if p.self["proxy"] != 15 || p.self["harness"] != 20 {
		t.Errorf("proxy self %d harness self %d", p.self["proxy"], p.self["harness"])
	}
}

// A replica span finds its front span by loop digest and enclosure, even
// when two fronts carry the same loop.
func TestLinkReplicaToFront(t *testing.T) {
	k := [32]byte{1}
	other := [32]byte{2}
	h := &hopRecorder{keys: map[int64][][32]byte{
		10: {k}, 11: {k}, 12: {other},
		20: {k}, 21: {k}, 22: {other},
	}}
	spans := []span{
		{ID: 10, Item: 1, Name: "proxy.Handler", Start: 0, End: 100},
		{ID: 11, Item: 2, Name: "proxy.Handler", Start: 40, End: 90},
		{ID: 12, Item: 3, Name: "proxy.Handler", Start: 0, End: 100},
		{ID: 20, Name: "server.Handler", Start: 50, End: 80}, // inside both 10 and 11
		{ID: 21, Name: "server.Handler", Start: 5, End: 30},  // inside 10 only
		{ID: 22, Name: "server.Handler", Start: 10, End: 20}, // batch element of 12
	}
	got := map[int64]int64{}
	for _, s := range h.link(spans) {
		got[s.ID] = s.Parent
	}
	if got[20] != 11 || got[21] != 10 || got[22] != 12 {
		t.Fatalf("parents %v; want 20->11, 21->10, 22->12", got)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	ran := false
	tr.call("core.Check", 0, 0, func() { ran = true })
	if !ran || tr.newID() != 0 {
		t.Fatal("nil tracer must run the call and record nothing")
	}
}
