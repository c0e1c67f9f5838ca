package experiments

import (
	"context"
	"testing"

	"modsched/internal/loopgen"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

// writeTestShards streams a synthetic corpus into dir with the canonical
// contiguous split, mirroring corpusgen -shards.
func writeTestShards(t *testing.T, dir string, cfg loopgen.Config, m *machine.Machine, shards int) []string {
	t.Helper()
	paths, err := WriteShards(dir, cfg, m, shards)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestStreamDeterminism pins the map-reduce contract: the formatted
// stream report is byte-identical across worker counts, across shard
// counts, and with or without a compile cache.
func TestStreamDeterminism(t *testing.T) {
	m := machine.Cydra5()
	cfg := loopgen.DefaultConfig()
	cfg.N = 120
	if testing.Short() {
		cfg.N = 40
	}
	cfg.Seed = 424242
	ctx := context.Background()

	var reports []string
	var labels []string
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		paths := writeTestShards(t, dir, cfg, m, shards)
		for _, workers := range []int{1, 4} {
			for _, mode := range []string{"cold", "cached"} {
				var cache *schedcache.Cache
				if mode == "cached" {
					cache = schedcache.New(0)
				}
				rep, err := RunCorpusStream(ctx, paths, m, 2, workers, cache)
				if err != nil {
					t.Fatalf("shards=%d workers=%d %s: %v", shards, workers, mode, err)
				}
				reports = append(reports, FormatStream(rep))
				labels = append(labels, mode)
			}
		}
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report %d (%s) differs from report 0 (%s):\n%s\nvs\n%s",
				i, labels[i], labels[0], reports[i], reports[0])
		}
	}
}

// TestStreamMatchesInMemory pins that the streamed aggregate equals the
// same statistics computed from an in-memory RunCorpus over the same
// generated loops.
func TestStreamMatchesInMemory(t *testing.T) {
	m := machine.Cydra5()
	cfg := loopgen.DefaultConfig()
	cfg.N = 50
	cfg.Seed = 99
	dir := t.TempDir()
	paths := writeTestShards(t, dir, cfg, m, 3)
	ctx := context.Background()

	stream, err := RunCorpusStream(ctx, paths, m, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	loops, err := loopgen.Generate(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := RunCorpusWorkers(ctx, loops, m, 2, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want StreamReport
	for i := range cr.Loops {
		want.fold(&cr.Loops[i])
	}
	got := *stream
	got.Machine, got.BudgetRatio, got.Shards, got.Seed = "", 0, 0, 0
	if got != want {
		t.Fatalf("streamed aggregate differs from in-memory:\nstream: %+v\nmemory: %+v", got, want)
	}
}
