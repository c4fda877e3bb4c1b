package kcore

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Section VII), wrapping the drivers in internal/bench
// at reduced workload size so `go test -bench=.` completes in minutes.
// Full-size (scaled-paper) runs are produced by cmd/kcore-bench; measured
// results are recorded in EXPERIMENTS.md.

import (
	"io"
	"math/rand/v2"
	"testing"

	"kcore/internal/bench"
	"kcore/internal/datasets"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/traversal"
	"kcore/internal/workload"
)

// benchConfig is the reduced configuration used by the testing.B targets.
func benchConfig() bench.Config {
	return bench.Config{
		Out:      io.Discard,
		Edges:    300,
		Groups:   4,
		Hops:     []int{2, 3},
		Seed:     11,
		Datasets: datasets.Small(),
	}
}

func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.TableI(benchConfig())
	}
}

func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig1(benchConfig())
	}
}

func BenchmarkFig2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig2(benchConfig())
	}
}

func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig5(benchConfig())
	}
}

func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig9(benchConfig())
	}
}

func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Fig10(benchConfig())
	}
}

func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Edges = 150
	for i := 0; i < b.N; i++ {
		bench.Fig11(cfg)
	}
}

func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Edges = 100
	for i := 0; i < b.N; i++ {
		bench.Fig12(cfg)
	}
}

func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Edges = 200
	for i := 0; i < b.N; i++ {
		bench.TableII(cfg)
	}
}

func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.TableIII(benchConfig())
	}
}

// --- Micro-benchmarks: per-update cost of each algorithm on a fixed
// workload (the unit quantity behind Table II). ---

type microFixture struct {
	g     *graph.Undirected
	edges []workload.Edge
}

func microGraph(kind string) microFixture {
	var g *graph.Undirected
	switch kind {
	case "social":
		g = gen.BarabasiAlbert(5000, 8, 3)
	case "web":
		g = gen.RMAT(13, 40000, 0.57, 0.19, 0.19, 3)
	case "road":
		g = gen.Grid(70, 70, 0.62, 0.05, 3)
	default:
		g = gen.ErdosRenyi(5000, 20000, 3)
	}
	edges := workload.SampleEdges(g, 2000, 5)
	workload.RemoveAll(g, edges)
	return microFixture{g: g, edges: edges}
}

func benchmarkOrderInsert(b *testing.B, kind string) {
	b.ReportAllocs()
	fx := microGraph(kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := fx.g.Clone()
		m := korder.New(g, korder.Options{Seed: 1})
		b.StartTimer()
		for _, e := range fx.edges {
			if _, err := m.Insert(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(fx.edges)), "edges/op")
}

func benchmarkOrderRemove(b *testing.B, kind string) {
	b.ReportAllocs()
	fx := microGraph(kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := fx.g.Clone()
		m := korder.New(g, korder.Options{Seed: 1})
		for _, e := range fx.edges {
			if _, err := m.Insert(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, e := range fx.edges {
			if _, err := m.Remove(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(fx.edges)), "edges/op")
}

func benchmarkTravInsert(b *testing.B, kind string, hops int) {
	b.ReportAllocs()
	fx := microGraph(kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := fx.g.Clone()
		m := traversal.New(g, hops)
		b.StartTimer()
		for _, e := range fx.edges {
			if _, err := m.Insert(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(fx.edges)), "edges/op")
}

func BenchmarkOrderInsertSocial(b *testing.B)  { benchmarkOrderInsert(b, "social") }
func BenchmarkOrderInsertWeb(b *testing.B)     { benchmarkOrderInsert(b, "web") }
func BenchmarkOrderInsertRoad(b *testing.B)    { benchmarkOrderInsert(b, "road") }
func BenchmarkOrderRemoveSocial(b *testing.B)  { benchmarkOrderRemove(b, "social") }
func BenchmarkTravInsertSocialH2(b *testing.B) { benchmarkTravInsert(b, "social", 2) }
func BenchmarkTravInsertRoadH2(b *testing.B)   { benchmarkTravInsert(b, "road", 2) }

// BenchmarkEngineAddRemove measures the public API round trip on a mixed
// stream (order-based engine).
func BenchmarkEngineAddRemove(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.IntN(2000), rng.IntN(2000)
		if u == v {
			continue
		}
		if e.HasEdge(u, v) {
			if _, err := e.RemoveEdge(u, v); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := e.AddEdge(u, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Batch API: Apply amortizes locking, validation and result assembly
// over the whole batch; the per-edge loop pays them per call. Same 10k-edge
// insertion workload either way. ---

func batchBenchEdges() [][2]int {
	g := gen.BarabasiAlbert(3000, 4, 13)
	edges := g.Edges()
	if len(edges) > 10000 {
		edges = edges[:10000]
	}
	return edges
}

// BenchmarkApplyBatch10k measures the default engine: a batch this large
// relative to the graph is routed to the wholesale-recompute path by the
// cost model (see BatchInfo.Recomputed). BenchmarkApplyBatch10kMaintain
// pins the incremental path for comparison.
func BenchmarkApplyBatch10k(b *testing.B) {
	b.ReportAllocs()
	edges := batchBenchEdges()
	batch := make(Batch, len(edges))
	for i, ed := range edges {
		batch[i] = Add(ed[0], ed[1])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine()
		b.StartTimer()
		if _, err := e.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}

func BenchmarkApplyBatch10kMaintain(b *testing.B) {
	b.ReportAllocs()
	edges := batchBenchEdges()
	batch := make(Batch, len(edges))
	for i, ed := range edges {
		batch[i] = Add(ed[0], ed[1])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(WithRebuildThreshold(-1, 0))
		b.StartTimer()
		if _, err := e.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}

func BenchmarkPerEdgeAdd10k(b *testing.B) {
	b.ReportAllocs()
	edges := batchBenchEdges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine()
		b.StartTimer()
		for _, ed := range edges {
			if _, err := e.AddEdge(ed[0], ed[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}

// BenchmarkIndexBuild measures initial index construction (Table III's
// unit operation) on the social micro graph.
func BenchmarkIndexBuildOrder(b *testing.B) {
	b.ReportAllocs()
	g := gen.BarabasiAlbert(5000, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = korder.New(g.Clone(), korder.Options{Seed: 1})
	}
}

func BenchmarkIndexBuildTravH2(b *testing.B) {
	b.ReportAllocs()
	g := gen.BarabasiAlbert(5000, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = traversal.New(g.Clone(), 2)
	}
}
