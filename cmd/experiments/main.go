// Command experiments regenerates every table and figure of the paper's
// evaluation over the stand-in corpus (see DESIGN.md for the corpus
// substitution):
//
//	experiments -table3     Table 3 distribution statistics (BudgetRatio 6)
//	experiments -fig6       Figure 6 BudgetRatio sweep
//	experiments -table4     Table 4 empirical complexity fits
//	experiments -summary    Section 4.3 / 5 headline numbers
//	experiments -fig1       Figure 1 reservation tables
//	experiments -table2     Table 2 machine model
//	experiments -unroll     Section 5 unroll-before-scheduling baseline
//	experiments -pressure   register-pressure study (extension)
//	experiments -all        everything above
//	experiments -matrix D   cross-machine matrix over a machine zoo
//	                        (a directory of .mach files or a comma-
//	                        separated list of machine specs)
//
// Use -n to shrink the synthetic corpus for quick runs and -seed to vary
// it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"modsched/internal/core"
	"modsched/internal/experiments"
	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

func main() {
	var (
		doTable3   = flag.Bool("table3", false, "reproduce Table 3")
		doFig6     = flag.Bool("fig6", false, "reproduce Figure 6")
		doTable4   = flag.Bool("table4", false, "reproduce Table 4")
		doSummary  = flag.Bool("summary", false, "headline numbers (Sections 4.3, 5)")
		doFig1     = flag.Bool("fig1", false, "print the Figure 1 reservation tables")
		doTable2   = flag.Bool("table2", false, "print the Table 2 machine model")
		doUnroll   = flag.Bool("unroll", false, "Section 5 baseline: unroll-before-scheduling vs modulo")
		doPress    = flag.Bool("pressure", false, "register-pressure study (extension)")
		doAll      = flag.Bool("all", false, "run everything")
		n          = flag.Int("n", 0, "synthetic corpus size (default: the paper's 1300)")
		seed       = flag.Int64("seed", 0, "corpus seed (default: built-in)")
		machName   = flag.String("machine", "cydra5", "machine model: cydra5 (the paper's), generic, tiny, or a machlang file")
		matrix     = flag.String("matrix", "", "cross-machine matrix: comma-separated machine specs (names or .mach files) or a directory of .mach files")
		workers    = flag.Int("workers", 0, "parallel scheduling workers (0 = one per CPU, 1 = sequential)")
		useCache   = flag.Bool("cache", false, "memoize compilations across corpus runs with a shared compile cache")
		streamDir  = flag.String("stream", "", "run the streaming corpus report over the sharded corpus in this directory (see corpusgen -shards)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	if *doAll {
		*doTable3, *doFig6, *doTable4, *doSummary = true, true, true, true
		*doFig1, *doTable2, *doUnroll, *doPress = true, true, true, true
	}
	if !(*doTable3 || *doFig6 || *doTable4 || *doSummary || *doFig1 || *doTable2 || *doUnroll || *doPress || *streamDir != "" || *matrix != "") {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC() // materialize the final live set
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}
	ctx := context.Background()

	if *matrix != "" {
		// The matrix reruns the corpus + Figure 6 sweep per machine and
		// prints one comparative report; like every harness, the output is
		// byte-identical for any -workers value, so scripts can diff runs.
		mms, err := matrixMachines(*matrix)
		check(err)
		corpusFor := func(mm *machine.Machine) ([]*ir.Loop, error) {
			return corpus(mm, *n, *seed), nil
		}
		reports, err := experiments.RunMatrix(ctx, mms, corpusFor, experiments.DefaultFig6Ratios(), *workers)
		check(err)
		fmt.Print(experiments.FormatMatrix(reports))
		return
	}

	if *streamDir != "" {
		// The report itself is deterministic and goes to stdout so scripts
		// can diff it byte-for-byte; cache traffic depends on worker
		// interleaving and goes to stderr.
		paths, err := filepath.Glob(filepath.Join(*streamDir, "shard-*.mscorp"))
		check(err)
		sort.Strings(paths)
		m := machine.Cydra5()
		var cache *schedcache.Cache
		if *useCache {
			cache = schedcache.New(0)
		}
		rep, err := experiments.RunCorpusStream(ctx, paths, m, 2, *workers, cache)
		check(err)
		fmt.Print(experiments.FormatStream(rep))
		if cache != nil {
			st := cache.Stats()
			fmt.Fprintf(os.Stderr, "compile cache: %d hits, %d misses, %d inflight joins, %d evictions\n",
				st.Hits, st.Misses, st.Inflight, st.Evictions)
		}
		return
	}

	m, _, err := machine.ResolveSpec(*machName)
	check(err)

	if *doFig1 {
		fmt.Println("Figure 1(a): reservation table for a pipelined add")
		fmt.Println(m.TableString(m.MustOpcode("add").Alternatives[0].Table))
		fmt.Println("Figure 1(b): reservation table for a pipelined multiply")
		fmt.Println(m.TableString(m.MustOpcode("fmul").Alternatives[0].Table))
	}
	if *doTable2 {
		printTable2(m)
	}
	if !(*doTable3 || *doFig6 || *doTable4 || *doSummary || *doUnroll || *doPress) {
		return
	}

	loops := corpus(m, *n, *seed)
	fmt.Printf("corpus: %d loops on %s\n\n", len(loops), m.Name)

	// One cache across every section: the BudgetRatio participates in the
	// key, so sections at different ratios never mix, while repeated runs
	// at the same ratio (Table 4, the Fig. 6 ratio-2 point, the summary)
	// and the corpus's structural duplicates hit.
	var cache *schedcache.Cache
	if *useCache {
		cache = schedcache.New(0)
		defer func() {
			st := cache.Stats()
			fmt.Printf("compile cache: %d hits, %d misses, %d inflight joins, %d evictions\n",
				st.Hits, st.Misses, st.Inflight, st.Evictions)
		}()
	}

	if *doTable3 {
		cr := must(experiments.RunCorpusCached(ctx, loops, m, 6, true, *workers, cache))
		fmt.Println(experiments.FormatTable3(experiments.Table3(cr)))
	}
	if *doFig6 {
		pts := must(experiments.Fig6SweepCached(ctx, loops, m, experiments.DefaultFig6Ratios(), *workers, cache))
		fmt.Println(experiments.FormatFig6(pts))
	}
	if *doTable4 {
		cr := must(experiments.RunCorpusCached(ctx, loops, m, 2, false, *workers, cache))
		fmt.Println(experiments.ComputeTable4(cr).Format())
	}
	if *doUnroll {
		// The unroll study schedules each loop up to 9 times; subsample
		// for tractability unless the corpus is already small.
		sub := loops
		if len(sub) > 300 {
			sub = sub[:300]
		}
		pts, err := experiments.UnrollStudyWorkers(ctx, sub, m, []int{1, 2, 4, 8, 16}, *workers)
		check(err)
		fmt.Println(experiments.FormatUnrollStudy(pts))
	}
	if *doPress {
		sub := loops
		if len(sub) > 400 {
			sub = sub[:400]
		}
		early := must(experiments.RegPressureStudyWorkers(ctx, sub, m, core.DefaultOptions(), "early", *workers))
		lateOpts := core.DefaultOptions()
		lateOpts.PlaceLate = true
		late := must(experiments.RegPressureStudyWorkers(ctx, sub, m, lateOpts, "late", *workers))
		fmt.Println(experiments.FormatPressure([]*experiments.PressurePoint{early, late}))
	}
	if *doSummary {
		cr := must(experiments.RunCorpusCached(ctx, loops, m, 2, false, *workers, cache))
		fmt.Println(experiments.Summarize(cr).Format())
		listSteps, modSteps, modUnsch, err := experiments.ListVsModuloWorkers(ctx, loops, m, 2, *workers)
		check(err)
		fmt.Printf("Section 5 cost comparison: list %d steps, modulo %d steps + %d unschedules => %.2fx (paper 2.18x)\n",
			listSteps, modSteps, modUnsch, float64(modSteps+modUnsch)/float64(listSteps))
	}
}

// matrixMachines expands the -matrix argument: a directory of .mach
// files (taken in sorted order) or a comma-separated list of machine
// specs, each a built-in name or a machlang file path. Display names
// are the file base name (minus .mach) for files, the spec itself for
// built-ins.
func matrixMachines(arg string) ([]experiments.MatrixMachine, error) {
	var specs []string
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		paths, err := filepath.Glob(filepath.Join(arg, "*.mach"))
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		if len(paths) == 0 {
			return nil, fmt.Errorf("no .mach files in %s", arg)
		}
		specs = paths
	} else {
		specs = strings.Split(arg, ",")
	}
	mms := make([]experiments.MatrixMachine, 0, len(specs))
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		m, _, err := machine.ResolveSpec(spec)
		if err != nil {
			return nil, err
		}
		name := spec
		if strings.HasSuffix(spec, ".mach") {
			name = strings.TrimSuffix(filepath.Base(spec), ".mach")
		}
		mms = append(mms, experiments.MatrixMachine{Name: name, Machine: m})
	}
	if len(mms) == 0 {
		return nil, fmt.Errorf("empty -matrix machine list %q", arg)
	}
	return mms, nil
}

func corpus(m *machine.Machine, n int, seed int64) []*ir.Loop {
	if n == 0 && seed == 0 {
		loops, err := experiments.Corpus(m)
		check(err)
		return loops
	}
	cfg := loopgen.DefaultConfig()
	if n > 0 {
		cfg.N = n
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	loops, err := loopgen.Generate(cfg, m)
	check(err)
	return loops
}

func printTable2(m *machine.Machine) {
	fmt.Println("Table 2: machine model (functional units, operations, latencies)")
	fmt.Printf("%-10s %-28s %s\n", "Opcode", "Alternatives", "Latency")
	for _, oc := range m.Opcodes() {
		alts := ""
		for i, a := range oc.Alternatives {
			if i > 0 {
				alts += ", "
			}
			alts += a.Name
		}
		fmt.Printf("%-10s %-28s %d\n", oc.Name, alts, oc.Latency)
	}
	fmt.Println()
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
