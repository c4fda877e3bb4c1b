package kcore

import (
	"testing"

	"kcore/internal/gen"
	"kcore/internal/workload"
)

// Steady-state batched churn through Apply: a prebuilt graph, mixed
// adds/removes, fixed-size batches, with recomputation disabled so every
// update runs through per-update maintenance.

type churnFixture struct {
	edges   [][2]int
	batches []Batch
}

var churnFx *churnFixture

func churnFixture1() *churnFixture {
	if churnFx != nil {
		return churnFx
	}
	base := gen.ErdosRenyi(20000, 60000, 42)
	ops := workload.Churn(base, 10000, workload.ChurnOptions{AddFraction: 0.55, Skew: 0.2, Seed: 43})
	fx := &churnFixture{edges: base.Edges()}
	for start := 0; start < len(ops); start += 2500 {
		end := min(start+2500, len(ops))
		b := make(Batch, 0, end-start)
		for _, op := range ops[start:end] {
			if op.Insert {
				b = append(b, Add(op.E.U, op.E.V))
			} else {
				b = append(b, Remove(op.E.U, op.E.V))
			}
		}
		fx.batches = append(fx.batches, b)
	}
	churnFx = fx
	return fx
}

func BenchmarkChurnBatches(b *testing.B) {
	fx := churnFixture1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := FromEdges(fx.edges, WithSeed(42), WithRebuildThreshold(-1, 0))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, batch := range fx.batches {
			if _, err := e.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(10000, "updates/op")
}
