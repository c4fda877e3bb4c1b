package kcore

import (
	"fmt"
	"slices"
	"testing"

	"kcore/internal/datasets"
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
		e, err := FromEdges(fx.edges, WithRebuildThreshold(-1, 0))
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

// BenchmarkPokecChurn is the batch-churn loop in-process: skewed churn on
// pokec-sim through Apply with the default options, one op per batch, at 1,
// 100 (the served batch size) and 512 updates per batch. The first 8,192
// updates are applied once, outside the timer; the op loop then cycles the
// forward batches and their inverses, which undo them exactly, so the graph
// never drifts. B/op is what one batch allocates, its epoch included, and
// updates/s is perfbench's throughput unit.
func BenchmarkPokecChurn(b *testing.B) {
	const lead = 16 * 512
	d, err := datasets.ByName("pokec-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build()
	ops := workload.Churn(g, lead+100*512, workload.ChurnOptions{Skew: 0.5, Seed: 1})
	batch := func(ops []workload.Op, invert bool) Batch {
		out := make(Batch, len(ops))
		for i, op := range ops {
			if op.Insert != invert {
				out[i] = Add(op.E.U, op.E.V)
			} else {
				out[i] = Remove(op.E.U, op.E.V)
			}
		}
		return out
	}
	for _, size := range []int{1, 100, 512} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			e, err := FromEdges(g.Edges())
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < lead; lo += size {
				if _, err := e.Apply(batch(ops[lo:min(lo+size, lead)], false)); err != nil {
					b.Fatal(err)
				}
			}
			fwd := ops[lead:]
			var cycle []Batch
			for lo := 0; lo < len(fwd); lo += size {
				cycle = append(cycle, batch(fwd[lo:min(lo+size, len(fwd))], false))
			}
			for lo := (len(fwd) - 1) / size * size; lo >= 0; lo -= size {
				inv := batch(fwd[lo:min(lo+size, len(fwd))], true)
				slices.Reverse(inv)
				cycle = append(cycle, inv)
			}
			b.ReportAllocs()
			b.ResetTimer()
			updates := 0
			for i := 0; i < b.N; i++ {
				c := cycle[i%len(cycle)]
				if _, err := e.Apply(c); err != nil {
					b.Fatal(err)
				}
				updates += len(c)
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}
