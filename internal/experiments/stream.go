package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"modsched/internal/core"
	"modsched/internal/corpusfile"
	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

// StreamReport is the aggregate over a streamed sharded corpus. Unlike
// CorpusResult it holds no per-loop entries — memory stays bounded no
// matter how many loops stream through — and it carries only fields
// that are deterministic functions of the corpus content: quality
// numbers (II, SL, bounds, execution-time metric) and the final-attempt
// step count. The report is byte-identical for any worker count, with or
// without a compile cache — the streaming determinism test pins this.
type StreamReport struct {
	Machine     string
	BudgetRatio float64
	Shards      int
	Seed        int64
	// Loops is the record count; Ops/Edges sum the real operations and
	// the dependence edges between them.
	Loops, Ops, Edges int64
	// Quality sums and the II == MII achievement count.
	SumMII, SumII, SumSL, SumMinSL int64
	AtMII                          int64
	// SumStepsFinal sums the final (successful) attempt's scheduling
	// steps — the paper's "effort that mattered".
	SumStepsFinal int64
	// Execution-time metric (paper Section 4.3) at achieved (SL, II) and
	// at the lower bounds (MinSL, MII).
	ExecActual, ExecBound int64
}

func (r *StreamReport) fold(lr *LoopResult) {
	r.Loops++
	r.Ops += int64(lr.N)
	r.Edges += int64(lr.E)
	r.SumMII += int64(lr.MII)
	r.SumII += int64(lr.II)
	r.SumSL += int64(lr.SL)
	r.SumMinSL += int64(lr.MinSL)
	if lr.II == lr.MII {
		r.AtMII++
	}
	r.SumStepsFinal += lr.StepsFinal
	r.ExecActual += lr.ExecTimeActual()
	r.ExecBound += lr.ExecTimeBound()
}

func (r *StreamReport) merge(p *StreamReport) {
	r.Loops += p.Loops
	r.Ops += p.Ops
	r.Edges += p.Edges
	r.SumMII += p.SumMII
	r.SumII += p.SumII
	r.SumSL += p.SumSL
	r.SumMinSL += p.SumMinSL
	r.AtMII += p.AtMII
	r.SumStepsFinal += p.SumStepsFinal
	r.ExecActual += p.ExecActual
	r.ExecBound += p.ExecBound
}

// RunCorpusStream schedules every loop of a sharded corpus
// (internal/corpusfile, written by corpusgen -shards) and returns the
// aggregate report. Shards are processed in parallel — paths must be in
// shard order — with one partial report per shard, folded in shard
// order afterwards, so the report is byte-identical for any worker
// count. Within a shard, records stream through one at a time: peak
// memory is one loop (plus the optional cache) per worker, not the
// corpus. A non-nil cache memoizes compiles across duplicate structures.
func RunCorpusStream(ctx context.Context, paths []string, m *machine.Machine, budgetRatio float64, workers int, cache *schedcache.Cache) (*StreamReport, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("experiments: no corpus shards")
	}
	opts := core.DefaultOptions()
	opts.BudgetRatio = budgetRatio
	partials := make([]StreamReport, len(paths))
	headers := make([]corpusfile.Header, len(paths))
	err := ParallelFor(ctx, len(paths), workers, func(ctx context.Context, s int) error {
		h, err := streamShard(ctx, paths[s], m, opts, cache, &partials[s])
		if err != nil {
			return fmt.Errorf("experiments: shard %s: %w", paths[s], err)
		}
		headers[s] = h
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := corpusfile.ValidateSet(headers); err != nil {
		return nil, err
	}
	rep := &StreamReport{
		Machine:     m.Name,
		BudgetRatio: budgetRatio,
		Shards:      len(paths),
		Seed:        headers[0].Seed,
	}
	for i := range partials {
		rep.merge(&partials[i])
	}
	if rep.Loops != int64(headers[0].Total) {
		return nil, fmt.Errorf("experiments: scheduled %d loops, corpus total says %d", rep.Loops, headers[0].Total)
	}
	return rep, nil
}

// WriteShards streams a freshly generated synthetic corpus into dir as
// the canonical contiguous shard split (corpusgen -shards is a thin
// wrapper around this). Exactly one shard file is open at a time and
// loops are generated one by one, so writing a million-loop corpus
// needs memory for a single loop. Returns the shard paths in shard
// order. Record content depends only on (cfg.Seed, cfg.N), never on the
// shard count.
func WriteShards(dir string, cfg loopgen.Config, m *machine.Machine, shards int) ([]string, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("experiments: shard count %d", shards)
	}
	cfg = cfg.WithDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	counts := corpusfile.ShardCounts(cfg.N, shards)
	paths := make([]string, shards)
	var (
		w     *corpusfile.Writer
		f     *os.File
		shard = -1
		first = 0
		next  = 0 // records written into the current shard
	)
	closeCur := func() error {
		if w == nil {
			return nil
		}
		err := w.Close()
		w = nil
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	openNext := func() error {
		if shard >= 0 {
			first += counts[shard]
		}
		shard++
		next = 0
		var err error
		paths[shard] = filepath.Join(dir, corpusfile.ShardName(shard))
		if f, err = os.Create(paths[shard]); err != nil {
			return err
		}
		if w, err = corpusfile.NewWriter(f, corpusfile.Header{
			Shard: shard, Shards: shards, Seed: cfg.Seed,
			Count: counts[shard], First: first, Total: cfg.N,
		}); err != nil {
			f.Close()
			w = nil
			return err
		}
		return nil
	}
	err := loopgen.Stream(cfg, m, func(i int, l *ir.Loop) error {
		for w == nil || next == counts[shard] {
			if err := closeCur(); err != nil {
				return err
			}
			if err := openNext(); err != nil {
				return err
			}
		}
		next++
		return w.Add([]byte(looplang.Print(l)))
	})
	if err != nil {
		if w != nil {
			f.Close()
		}
		return nil, err
	}
	if err := closeCur(); err != nil {
		return nil, err
	}
	// Trailing empty shards, possible when shards > N.
	for shard < shards-1 {
		if err := openNext(); err != nil {
			return nil, err
		}
		if err := closeCur(); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

func streamShard(ctx context.Context, path string, m *machine.Machine, opts core.Options, cache *schedcache.Cache, out *StreamReport) (corpusfile.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return corpusfile.Header{}, err
	}
	defer f.Close()
	r, err := corpusfile.NewReader(f)
	if err != nil {
		return corpusfile.Header{}, err
	}
	for {
		rec, err := r.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			return r.Header(), err
		}
		l, err := looplang.Parse(string(rec), m)
		if err != nil {
			return r.Header(), fmt.Errorf("record %d: %w", out.Loops, err)
		}
		lr, err := runOne(ctx, l, m, opts, false, cache)
		if err != nil {
			return r.Header(), fmt.Errorf("loop %s: %w", l.Name, err)
		}
		out.fold(lr)
	}
	return r.Header(), nil
}

// FormatStream renders a stream report; every number is a deterministic
// function of the corpus content — the shard count is deliberately
// omitted — so two runs over the same corpus can be compared
// byte-for-byte regardless of worker count or sharding.
func FormatStream(r *StreamReport) string {
	f := func(sum int64) float64 { return float64(sum) / float64(r.Loops) }
	out := fmt.Sprintf("streamed corpus: %d loops (seed %d) on %s, BudgetRatio %g\n",
		r.Loops, r.Seed, r.Machine, r.BudgetRatio)
	out += fmt.Sprintf("  ops/loop %.4f  edges/loop %.4f\n", f(r.Ops), f(r.Edges))
	out += fmt.Sprintf("  mean MII %.4f  mean II %.4f  mean SL %.4f  mean MinSL %.4f\n",
		f(r.SumMII), f(r.SumII), f(r.SumSL), f(r.SumMinSL))
	out += fmt.Sprintf("  II == MII on %d/%d loops (%.2f%%)  deltaII/loop %.5f\n",
		r.AtMII, r.Loops, 100*float64(r.AtMII)/float64(r.Loops),
		float64(r.SumII-r.SumMII)/float64(r.Loops))
	out += fmt.Sprintf("  exec time: actual %d  bound %d  dilation %.5f\n",
		r.ExecActual, r.ExecBound,
		float64(r.ExecActual-r.ExecBound)/float64(r.ExecBound))
	out += fmt.Sprintf("  steps(final)/op %.5f\n", float64(r.SumStepsFinal)/float64(r.Ops))
	return out
}
