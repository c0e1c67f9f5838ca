package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, "ok"},
		{"worse", steady, []float64{12, 12.1, 11.9, 12, 12.05}, "WORSE"},
		{"better", steady, []float64{8, 8.1, 7.9, 8, 8.05}, "better"},
		// A side whose own spread exceeds the bound cannot be judged...
		{"noisy", steady, []float64{7, 10, 13, 9, 11}, "unresolved"},
		// ...unless every run of B beats every run of A.
		{"noisy but disjoint", []float64{20, 30, 40, 25, 35}, []float64{1, 2, 3, 1.5, 2.5}, "better"},
	} {
		if got := verdict(lat, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestExactVerdict(t *testing.T) {
	q, _ := find(endToEnd, "ii_eq_mii_pct")
	same := []float64{96.76, 96.76, 96.76}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"reproduced", same, "ok"},
		// One loop fewer at its MII is far inside any timing bound, but it
		// is a change in an exact metric.
		{"one loop worse", []float64{96.68, 96.68, 96.68}, "WORSE"},
		{"one loop better", []float64{96.83, 96.83, 96.83}, "better"},
		{"not reproduced", []float64{96.76, 96.68, 96.76}, "CHANGED"},
	} {
		if got := verdict(q, same, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		rep := newReport("corpus-compile", 1, 1, 1)
		rep.set("throughput_per_s", rate)
		p := filepath.Join(dir, name)
		if err := writeRunFile(p, []*report{rep}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m, _ := find(endToEnd, "throughput_per_s")
	loss := 1 - m.Bound - 0.05 // just past the bound
	a := []string{write("a1", 1000), write("a2", 1010), write("a3", 990)}
	same := []string{write("b1", 1005), write("b2", 995), write("b3", 1000)}
	slow := []string{write("c1", 1000*loss), write("c2", 1010*loss), write("c3", 990*loss)}

	var out bytes.Buffer
	if st := runCompare(&out, append(append(append([]string{}, a...), "--"), same...)); st != 0 {
		t.Fatalf("same commit compared as status %d:\n%s", st, out.String())
	}
	out.Reset()
	if st := runCompare(&out, append(append(append([]string{}, a...), "--"), slow...)); st != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("a throughput loss past the bound compared as status %d:\n%s", st, out.String())
	}
	if st := runCompare(&out, a); st != 2 {
		t.Fatalf("missing -- separator gave status %d", st)
	}
}

// TestRunCompareExactDetail checks that a code-size change on simulate,
// which is only a detail line, still fails the comparison.
func TestRunCompareExactDetail(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, size float64) string {
		rep := newReport("simulate", 1, 1, 1)
		rep.set("throughput_per_s", 130)
		rep.detail("code_size_ops", size, "count")
		p := filepath.Join(dir, name)
		if err := writeRunFile(p, []*report{rep}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	if st := runCompare(&out, []string{write("a", 50000), "--", write("b", 50000)}); st != 0 {
		t.Fatalf("equal code size compared as status %d:\n%s", st, out.String())
	}
	out.Reset()
	if st := runCompare(&out, []string{write("a", 50000), "--", write("c", 50001)}); st != 1 || !strings.Contains(out.String(), "code_size_ops") {
		t.Fatalf("one more operation of code compared as status %d:\n%s", st, out.String())
	}
}
