package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/kernels"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

// TestPinnedQualityNumbers pins exact schedule-quality and cache-traffic
// figures over fixed inputs. Every value is a deterministic function of
// the seeded corpus, so the floats are compared with ==: any change to
// the scheduler, the corpus generator, or the cache key shows up here,
// however small, while wall-clock noise cannot.
func TestPinnedQualityNumbers(t *testing.T) {
	ctx := context.Background()
	m := machine.Cydra5()
	loops, err := SmallCorpus(m, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 227 {
		t.Fatalf("SmallCorpus(cydra5, 200) has %d loops, want 227", len(loops))
	}

	t.Run("corpus", func(t *testing.T) {
		cr, err := RunCorpusWorkers(ctx, loops, m, 2, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		var delta int
		for _, r := range cr.Loops {
			delta += r.II - r.MII
		}
		if delta != 6 {
			t.Errorf("sum(II-MII) = %d, want 6", delta)
		}
		if got := 100 * cr.AggregateDilation(); got != 0.33666608308058343 {
			t.Errorf("dilation%% = %v, want 0.33666608308058343", got)
		}
		if got := cr.AggregateInefficiency(); got != 1.0862486248624863 {
			t.Errorf("steps/op = %v, want 1.0862486248624863", got)
		}
	})

	t.Run("cache", func(t *testing.T) {
		cache := schedcache.New(0)
		if _, err := RunCorpusCached(ctx, loops, m, 2, false, 1, cache); err != nil {
			t.Fatal(err)
		}
		if got, want := cache.Stats(), (schedcache.Stats{Hits: 49, Misses: 178}); got != want {
			t.Errorf("cold cache stats = %+v, want %+v", got, want)
		}
	})

	t.Run("livermore", func(t *testing.T) {
		ks, err := kernels.All(m)
		if err != nil {
			t.Fatal(err)
		}
		var delta int
		for _, l := range ks {
			s, err := core.ModuloSchedule(l, m, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			delta += s.II - s.MII
		}
		if delta != 2 {
			t.Errorf("Livermore sum(II-MII) = %d, want 2", delta)
		}
	})

	t.Run("fig6", func(t *testing.T) {
		pts, err := Fig6SweepWorkers(ctx, loops[:60], m, []float64{1, 2, 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := 100 * pts[1].Dilation; got != 1.1367112459774509 {
			t.Errorf("dilation%% at ratio 2 = %v, want 1.1367112459774509", got)
		}
		if got := pts[1].Inefficiency; got != 1.0573248407643312 {
			t.Errorf("steps/op at ratio 2 = %v, want 1.0573248407643312", got)
		}
	})

	// kernels pins the generated kernel text of the whole paper corpus,
	// so any change to the rotating-register packer that moves a single
	// base or grows a single file shows up here.
	t.Run("kernels", func(t *testing.T) {
		corpus, err := Corpus(m)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		sumSize := 0
		for _, l := range corpus {
			s, _, err := core.ModuloScheduleBestEffort(ctx, l, m, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			k, err := codegen.GenerateKernel(s)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			h.Write([]byte(k.String()))
			sumSize += k.Alloc.Size
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), "d041e1622369897f34f413e87b2bc78c8c2bc3149d028ae8a9e60d350dbfc717"; got != want {
			t.Errorf("kernel text SHA-256 = %s, want %s", got, want)
		}
		if sumSize != 59546 {
			t.Errorf("sum(Alloc.Size) = %d, want 59546", sumSize)
		}
	})
}
