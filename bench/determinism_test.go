package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSeedDeterminism runs each closed-loop workload twice in this process
// on a slice of its items with the same seed. Every pass must reproduce
// the warm-up pass (exact quality metrics and Table 4 counters alike), and
// the two runs must report byte-identical exact metrics.
func TestSeedDeterminism(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() ([]batchItem, error)
		run   func(*itemCtx, *batchItem) error
		n     int
	}{
		{"corpus-compile", corpusItems, runCompile, 200},
		{"schedule-large", largeItems, runSchedule, 24},
		{"simulate", simItems, runSimulate, 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			items, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			var exact [2][]byte
			for run := range exact {
				w := newBatch(append([]batchItem(nil), items[:c.n]...), c.run, 7)
				if err := w.warmUp(); err != nil {
					t.Fatal(err)
				}
				ph := w.measure(0, nil)
				if ph.drift != 0 || ph.failed != 0 || ph.wrong != 0 || len(ph.rates) < 2 {
					t.Fatalf("run %d: %d passes, drift %d failed %d wrong %d: %v", run, len(ph.rates), ph.drift, ph.failed, ph.wrong, ph.errs)
				}
				rep := newReport(c.name, 7, 0, 1)
				setQuality(rep, &w.ref)
				if exact[run], err = json.Marshal([]any{rep.Metrics, rep.Detail, w.ref.sched, w.ref.digest}); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(exact[0], exact[1]) {
				t.Fatalf("same seed, different exact metrics:\n%s\n%s", exact[0], exact[1])
			}
		})
	}
}

// TestRequestSequenceDeterminism checks the served pool and request
// sequence depend only on the seed.
func TestRequestSequenceDeterminism(t *testing.T) {
	pool, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if pool[i].key != again[i].key {
			t.Fatalf("pool item %d differs between builds", i)
		}
	}
	a, b, other := newRequestSeq(pool, 7), newRequestSeq(pool, 7), newRequestSeq(pool, 8)
	// Draw b out of order: request k must not depend on who asked first.
	b.get(499)
	differs := false
	batches := 0
	for k := 0; k < 500; k++ {
		ra, rb := a.get(k), b.get(k)
		if ra.path != rb.path || !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("request %d differs for the same seed", k)
		}
		if ra.path == "/compile/batch" {
			batches++
		}
		differs = differs || !bytes.Equal(ra.body, other.get(k).body)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 drew the same 500 requests")
	}
	if batches < 60 || batches > 140 {
		t.Errorf("%d of 500 requests are batches, want about 20%%", batches)
	}
}
