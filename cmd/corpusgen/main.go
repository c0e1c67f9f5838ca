// Command corpusgen emits the synthetic loop corpus (or the Livermore
// kernel suite) in the textual loop format, one file per loop, for
// inspection or for feeding to msched:
//
//	corpusgen -out corpus/ [-n 1300] [-seed 19941127] [-kernels] [-workers N]
//	         [-machine cydra5|generic|tiny|FILE.mach]
//
// With -shards it instead writes the seekable sharded corpus format
// (internal/corpusfile), streaming one generated loop at a time, so a
// million-loop corpus needs memory for only one loop:
//
//	corpusgen -out corpus/ -n 1000000 -shards 64
//
// The record content is determined by (seed, n) alone — resharding the
// same corpus produces the same records in the same global order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"modsched/internal/experiments"
	"modsched/internal/ir"
	"modsched/internal/kernels"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

func main() {
	var (
		out      = flag.String("out", "corpus", "output directory")
		n        = flag.Int("n", 0, "synthetic corpus size (default: the paper's 1300)")
		seed     = flag.Int64("seed", 0, "generator seed (default: built-in)")
		shards   = flag.Int("shards", 0, "write a sharded streaming corpus with this many shards instead of per-loop files")
		kernsFl  = flag.Bool("kernels", false, "emit the Livermore kernel suite instead")
		list     = flag.Bool("list", false, "print loop names and sizes to stdout instead of writing files")
		workers  = flag.Int("workers", 0, "parallel printer/writer workers (0 = one per CPU)")
		machSpec = flag.String("machine", "cydra5", "machine model: cydra5, generic, tiny, or a machlang file (docs/machines.md)")
	)
	flag.Parse()

	m, _, err := machine.ResolveSpec(*machSpec)
	check(err)

	if *shards > 0 {
		if *kernsFl || *list {
			fmt.Fprintln(os.Stderr, "corpusgen: -shards is exclusive with -kernels and -list")
			os.Exit(2)
		}
		cfg := loopgen.DefaultConfig()
		if *n > 0 {
			cfg.N = *n
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		_, werr := experiments.WriteShards(*out, cfg, m, *shards)
		check(werr)
		fmt.Printf("wrote %d loops to %d shards in %s\n", cfg.N, *shards, *out)
		return
	}
	var loops []*ir.Loop
	if *kernsFl {
		loops, err = kernels.All(m)
	} else {
		cfg := loopgen.DefaultConfig()
		if *n > 0 {
			cfg.N = *n
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		loops, err = loopgen.Generate(cfg, m)
	}
	check(err)

	if *list {
		for _, l := range loops {
			fmt.Printf("%-24s %4d ops %5d edges entry=%d trips=%d\n",
				l.Name, l.NumRealOps(), len(l.Edges), l.EntryFreq, l.LoopFreq)
		}
		return
	}

	check(os.MkdirAll(*out, 0o755))
	// Each loop prints and writes to its own file, so the emission is
	// embarrassingly parallel and the on-disk result is identical to a
	// sequential run.
	check(experiments.ParallelFor(context.Background(), len(loops), *workers,
		func(ctx context.Context, i int) error {
			l := loops[i]
			path := filepath.Join(*out, l.Name+".loop")
			return os.WriteFile(path, []byte(looplang.Print(l)), 0o644)
		}))
	fmt.Printf("wrote %d loops to %s\n", len(loops), *out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}
