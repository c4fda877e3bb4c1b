package main

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/persist"
	"kcore/internal/workload"
)

// The persist experiment answers the two durability cost questions:
//
//  1. WAL overhead per batch — the same churn stream applied with no store
//     and with the WAL at each fsync policy (off / interval / always). The
//     acceptance target: with Sync off, logging adds <= 25% to apply-batch.
//  2. Recovery time vs graph size — persist.Open (snapshot load + state
//     verification + WAL replay) across growing graphs.
//
// Results land in BENCH_persist.json (kcore-bench -experiment persist -json).

// persistRounds is how many times each apply row runs. One run of each
// differed from the next by more than the WAL overhead it priced (−7.6%
// to +18.7% for unchanged code), so the rows run in interleaved rounds and
// report medians.
const persistRounds = 5

// persistWorkload builds the seed graph and a valid churn batch stream.
func persistWorkload(edges int, seed uint64) (*kcore.Engine, []kcore.Batch, error) {
	g := gen.BarabasiAlbert(max(edges/3, 100), 4, seed)
	eng, err := kcore.FromEdges(g.Edges())
	if err != nil {
		return nil, nil, err
	}
	const batchSize = 100
	count := max(edges/batchSize, 10)
	cg, _, err := graph.FromEdges(eng.NumVertices(), eng.Edges())
	if err != nil {
		return nil, nil, err
	}
	ops := workload.Churn(cg, count*batchSize, workload.ChurnOptions{Seed: seed, Skew: 0.3})
	batches := make([]kcore.Batch, count)
	for i := range batches {
		b := make(kcore.Batch, 0, batchSize)
		for _, op := range ops[i*batchSize : (i+1)*batchSize] {
			if op.Insert {
				b = append(b, kcore.Add(op.E.U, op.E.V))
			} else {
				b = append(b, kcore.Remove(op.E.U, op.E.V))
			}
		}
		batches[i] = b
	}
	return eng, batches, nil
}

// persistExperiment measures WAL overhead and recovery time, returning
// structured results (and printing the overhead summary).
func persistExperiment(cfg bench.Config) []bench.Result {
	cfg = cfg.WithDefaults()
	var results []bench.Result

	// --- 1. WAL overhead on apply-batch, in persistRounds rounds. ---
	_, batches, err := persistWorkload(cfg.Edges, cfg.Seed)
	if err != nil {
		fatal(err)
	}
	params := map[string]any{
		"edges": cfg.Edges, "batches": len(batches), "batch_size": 100,
		"graph": "barabasi-albert", "seed": cfg.Seed,
		"unit": "ns per whole churn stream",
	}
	applyStream := func(b *testing.B, open func(tmp string) (*kcore.Engine, func(), error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// The stream is deterministic per (edges, seed) and Apply never
			// mutates its batches, so every iteration replays the outer
			// `batches` against a freshly opened target.
			tmp, err := os.MkdirTemp("", "kcore-bench-persist-*")
			if err != nil {
				b.Fatal(err)
			}
			target, cleanup, err := open(tmp)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, batch := range batches {
				if _, err := target.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cleanup()
			os.RemoveAll(tmp)
			b.StartTimer()
		}
	}
	baselineOpen := func(string) (*kcore.Engine, func(), error) {
		eng, _, err := persistWorkload(cfg.Edges, cfg.Seed)
		return eng, func() {}, err
	}
	storeOpen := func(policy persist.SyncPolicy) func(string) (*kcore.Engine, func(), error) {
		return func(tmp string) (*kcore.Engine, func(), error) {
			st, err := persist.Open(tmp, persist.Options{
				Sync: policy, CompactBytes: -1,
				Init: func() (*kcore.Engine, error) {
					eng, _, err := persistWorkload(cfg.Edges, cfg.Seed)
					return eng, err
				},
			})
			if err != nil {
				return nil, nil, err
			}
			return st.Engine(), func() { _ = st.Close() }, nil
		}
	}

	fmt.Println("=== persist === (WAL overhead per apply-batch, then recovery)")
	bench.PrintResultHeader(os.Stdout)
	rows := []struct {
		name   string
		policy persist.SyncPolicy
		open   func(string) (*kcore.Engine, func(), error)
	}{
		{"persist/apply-nowal", 0, baselineOpen}, // no store: policy unused
		{"persist/apply-wal-off", persist.SyncOff, storeOpen(persist.SyncOff)},
		{"persist/apply-wal-interval", persist.SyncInterval, storeOpen(persist.SyncInterval)},
		{"persist/apply-wal-always", persist.SyncAlways, storeOpen(persist.SyncAlways)},
	}
	// One run of every row per round, the rows' order rotating from round
	// to round, so that drift on a shared host lands on all four alike.
	runs := make([][]bench.Result, len(rows))
	for r := 0; r < persistRounds; r++ {
		for i := range rows {
			j := (i + r) % len(rows)
			p := maps.Clone(params)
			if j > 0 {
				p["fsync"] = rows[j].policy.String()
			}
			runs[j] = append(runs[j], bench.RunMeasured(io.Discard, rows[j].name, p,
				func(b *testing.B) { applyStream(b, rows[j].open) }))
		}
	}
	// Each row reports its median round, with the range of all rounds, and
	// the overheads compare the medians.
	var base float64
	for i, rr := range runs {
		slices.SortFunc(rr, func(a, b bench.Result) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		r := rr[len(rr)/2]
		r.Params["rounds"] = len(rr)
		r.Params["ns_per_op_range"] = fmt.Sprintf("%.0f-%.0f", rr[0].NsPerOp, rr[len(rr)-1].NsPerOp)
		fmt.Printf("%-28s %14.0f %12d %12d  (%d rounds, %s)\n",
			r.Name, r.NsPerOp, *r.BytesPerOp, *r.AllocsPerOp, len(rr), r.Params["ns_per_op_range"])
		if i == 0 {
			base = r.NsPerOp
		} else {
			overhead := r.NsPerOp/base - 1
			r.Params["overhead_vs_nowal"] = fmt.Sprintf("%.1f%%", overhead*100)
			fmt.Printf("  -> %s overhead vs no WAL: %.1f%%\n", rows[i].policy, overhead*100)
		}
		results = append(results, r)
	}

	// --- 2. Recovery time vs graph size. ---
	for _, scale := range []int{1, 4, 16} {
		edges := cfg.Edges * scale / 4
		if edges < 400 {
			edges = 400
		}
		dir, stats, err := buildRecoveryDir(edges, cfg.Seed)
		if err != nil {
			fatal(err)
		}
		p := map[string]any{
			"edges": edges, "wal_records": stats.WALRecords,
			"snapshot_bytes": stats.SnapshotBytes, "wal_bytes": stats.WALBytes,
			"unit": "ns per Open (snapshot load + verify + WAL replay)",
		}
		name := fmt.Sprintf("persist/recover-e%d", edges)
		results = append(results, bench.RunMeasured(os.Stdout, name, p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := persist.Open(dir, persist.Options{Sync: persist.SyncOff, CompactBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}))
		os.RemoveAll(dir)
	}
	return results
}

// buildRecoveryDir prepares a data directory holding a seed snapshot plus a
// churn WAL, for recovery timing.
func buildRecoveryDir(edges int, seed uint64) (string, persist.Stats, error) {
	dir, err := os.MkdirTemp("", "kcore-bench-recover-*")
	if err != nil {
		return "", persist.Stats{}, err
	}
	st, err := persist.Open(dir, persist.Options{
		Sync: persist.SyncOff, CompactBytes: -1,
		Init: func() (*kcore.Engine, error) {
			eng, _, err := persistWorkload(edges, seed)
			return eng, err
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return "", persist.Stats{}, err
	}
	_, batches, err := persistWorkload(edges, seed)
	if err == nil {
		for _, b := range batches {
			if _, aerr := st.Engine().Apply(b); aerr != nil {
				err = aerr
				break
			}
		}
	}
	stats := st.Stats()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", persist.Stats{}, err
	}
	// Leave the WAL in place: Open must replay it. Sanity: the directory
	// still holds both files.
	if _, serr := os.Stat(filepath.Join(dir, persist.SnapshotFile)); serr != nil {
		os.RemoveAll(dir)
		return "", persist.Stats{}, serr
	}
	return dir, stats, nil
}
