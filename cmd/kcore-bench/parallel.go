package main

import (
	"fmt"
	"testing"
	"time"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/workload"
)

// Batch-execution experiment: measured evidence for Apply's two execution
// strategies, per-update maintenance and wholesale recomputation. Four
// question marks, one row group each:
//
//  1. engine/apply-batch — the headline engine benchmark (10k-edge batch
//     into an empty engine) on the default path. The batch equals the
//     whole graph, so the cost model routes it to one O(m+n) recomputation;
//     this row is compared against BENCH_hotpath.json's row of the same
//     name by the CI regression guard.
//  2. engine/apply-batch/maintain — the same workload forced down the
//     incremental path (recompute disabled): per-update maintenance must
//     still be reachable and fast.
//  3. engine/churn/* — steady-state mixed churn on a prebuilt graph at two
//     hot-vertex skews, through per-update maintenance.
//  4. engine/rebuild-crossover/* — maintain vs recompute for growing batch
//     fractions of m, locating the crossover the cost model's default
//     fraction is calibrated from.

// parallelExperiment runs the experiment and returns the structured results.
func parallelExperiment(cfg bench.Config) []bench.Result {
	cfg = cfg.WithDefaults()
	var results []bench.Result
	bench.PrintResultHeader(cfg.Out)

	// 1 + 2: the headline batch, default path vs forced maintenance.
	results = append(results, applyBatchRows(cfg)...)
	// 3: steady-state churn at two skews.
	results = append(results, churnRows(cfg)...)
	// 4: maintain-vs-recompute crossover.
	results = append(results, crossoverRows(cfg)...)
	return results
}

// applyBatchRows mirrors the hotpath experiment's engine/apply-batch
// workload exactly (same generator, sizes, and seed), so the rows are
// comparable across BENCH_*.json files.
func applyBatchRows(cfg bench.Config) []bench.Result {
	g := gen.BarabasiAlbert(max(cfg.Edges/3, 100), 4, cfg.Seed)
	all := g.Edges()
	if len(all) > cfg.Edges {
		all = all[:cfg.Edges]
	}
	batch := make(kcore.Batch, len(all))
	for i, ed := range all {
		batch[i] = kcore.Add(ed[0], ed[1])
	}
	params := map[string]any{
		"edges": len(all), "graph": "barabasi-albert", "seed": cfg.Seed,
	}
	var results []bench.Result
	results = append(results, bench.RunMeasured(cfg.Out, "engine/apply-batch", params,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := kcore.NewEngine()
				b.StartTimer()
				if _, err := e.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
		}))
	results = append(results, bench.RunMeasured(cfg.Out, "engine/apply-batch/maintain", params,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := kcore.NewEngine(kcore.WithRebuildThreshold(-1, 0))
				b.StartTimer()
				if _, err := e.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
		}))
	return results
}

// churnRows measures steady-state batched churn (prebuilt graph, mixed
// adds/removes in fixed-size batches) at two skew settings. Timing is
// best-of-rounds wall clock over the whole stream — the engine evolves
// across batches, so per-iteration state cannot be reset inside testing.B
// without distorting the measurement.
func churnRows(cfg bench.Config) []bench.Result {
	n := 2 * cfg.Edges
	m := 6 * cfg.Edges
	streamLen := cfg.Edges
	batchSize := max(streamLen/4, 1)
	base := gen.ErdosRenyi(n, m, cfg.Seed)
	baseEdges := base.Edges()

	var results []bench.Result
	for _, skew := range []float64{0.2, 0.9} {
		ops := workload.Churn(base, streamLen, workload.ChurnOptions{
			AddFraction: 0.55, Skew: skew, Seed: cfg.Seed + 1})
		var batches []kcore.Batch
		for start := 0; start < len(ops); start += batchSize {
			end := min(start+batchSize, len(ops))
			b := make(kcore.Batch, 0, end-start)
			for _, op := range ops[start:end] {
				if op.Insert {
					b = append(b, kcore.Add(op.E.U, op.E.V))
				} else {
					b = append(b, kcore.Remove(op.E.U, op.E.V))
				}
			}
			batches = append(batches, b)
		}
		const rounds = 3
		var best time.Duration
		for r := 0; r < rounds; r++ {
			e, err := kcore.FromEdges(baseEdges, kcore.WithRebuildThreshold(-1, 0))
			if err != nil {
				panic(err)
			}
			start := time.Now()
			for _, b := range batches {
				if _, err := e.Apply(b); err != nil {
					panic(err)
				}
			}
			if d := time.Since(start); r == 0 || d < best {
				best = d
			}
		}
		params := bench.StampParams(map[string]any{
			"graph_n": n, "graph_m": m, "stream": streamLen,
			"batch_size": batchSize, "skew": skew,
			"unit": "ns per whole stream", "rounds": rounds,
		})
		name := fmt.Sprintf("engine/churn/skew%02.0f", skew*10)
		res := bench.Result{Name: name, NsPerOp: float64(best.Nanoseconds()),
			Iterations: rounds, Params: params}
		fmt.Fprintf(cfg.Out, "%-28s %14.0f %12s %12s\n", name, res.NsPerOp, "-", "-")
		results = append(results, res)
	}
	return results
}

// crossoverRows times the same pure-insertion batch through forced
// maintenance and forced recomputation for growing batch fractions of m.
// The fraction where the recompute row undercuts the maintain row is the
// calibration point for WithRebuildThreshold's default.
func crossoverRows(cfg bench.Config) []bench.Result {
	n := max(cfg.Edges, 1000)
	m := 3 * n
	base := gen.ErdosRenyi(n, m, cfg.Seed+2)
	baseEdges := base.Edges()
	var results []bench.Result
	for _, frac := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		count := int(frac * float64(m))
		if count < 1 {
			continue
		}
		inserts := workload.SampleNonEdges(base, count, cfg.Seed+3)
		batch := make(kcore.Batch, len(inserts))
		for i, ed := range inserts {
			batch[i] = kcore.Add(ed.U, ed.V)
		}
		for _, mode := range []string{"maintain", "rebuild"} {
			const rounds = 3
			var best time.Duration
			for r := 0; r < rounds; r++ {
				floor := 1
				if mode == "maintain" {
					floor = -1
				}
				e, err := kcore.FromEdges(baseEdges, kcore.WithRebuildThreshold(floor, 0))
				if err != nil {
					panic(err)
				}
				start := time.Now()
				info, err := e.Apply(batch)
				if err != nil {
					panic(err)
				}
				if (mode == "rebuild") != info.Recomputed {
					panic("crossover row executed on the wrong path")
				}
				if d := time.Since(start); r == 0 || d < best {
					best = d
				}
			}
			params := bench.StampParams(map[string]any{
				"graph_n": n, "graph_m": m, "batch": count, "frac": frac,
				"mode": mode,
				"unit": "ns per whole batch", "rounds": rounds,
			})
			name := fmt.Sprintf("engine/rebuild-crossover/f%03.0f/%s", frac*100, mode)
			res := bench.Result{Name: name, NsPerOp: float64(best.Nanoseconds()),
				Iterations: rounds, Params: params}
			fmt.Fprintf(cfg.Out, "%-28s %14.0f %12s %12s\n", name, res.NsPerOp, "-", "-")
			results = append(results, res)
		}
	}
	return results
}
