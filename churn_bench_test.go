package kcore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// pokecChurn builds pokec-sim and the churn stream batch-churn runs on it
// (skew 0.5, seed 1): a lead of pokecLead updates, then n more.
func pokecChurn(tb testing.TB, n int) ([][2]int, []workload.Op) {
	d, err := datasets.ByName("pokec-sim")
	if err != nil {
		tb.Fatal(err)
	}
	g := d.Build()
	return g.Edges(), workload.Churn(g, pokecLead+n, workload.ChurnOptions{Skew: 0.5, Seed: 1})
}

const pokecLead = 16 * 512

// churnBatch turns churn ops into a Batch, inverting every op when invert
// is set.
func churnBatch(ops []workload.Op, invert bool) Batch {
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

// TestChurnFingerprint pins the engine's results on batch-churn's stream
// bit for bit: the lead plus 40 batches of 512 updates through Apply, with
// every batch's Total.Visited and Total.CoreChanged, then the final k-order
// and cores, folded into one FNV-64a hash. A change to the maintenance
// scans, validation or the order structure that alters any of them, even
// in a way that keeps the cores correct, changes the hash.
func TestChurnFingerprint(t *testing.T) {
	const size, batches = 512, 40
	edges, ops := pokecChurn(t, batches*size)
	e, err := FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(word[:], uint64(x))
		h.Write(word[:])
	}
	for lo := 0; lo < len(ops); lo += size {
		info, err := e.Apply(churnBatch(ops[lo:min(lo+size, len(ops))], false))
		if err != nil {
			t.Fatal(err)
		}
		put(info.Total.Visited)
		put(len(info.Total.CoreChanged))
		for _, v := range info.Total.CoreChanged {
			put(v)
		}
	}
	st := e.Index()
	for _, v := range st.Order {
		put(v)
	}
	for _, c := range st.Cores {
		put(c)
	}
	const want = 0x1c619bc7bf04004a
	if got := h.Sum64(); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, uint64(want))
	}
}

// BenchmarkPokecChurn is the batch-churn loop in-process: skewed churn on
// pokec-sim through Apply with the default options, one op per batch, at 1,
// 100 (the served batch size) and 512 updates per batch. The first 8,192
// updates are applied once, outside the timer; the op loop then cycles the
// forward batches and their inverses, which undo them exactly, so the graph
// never drifts. B/op is what one batch allocates, its epoch included, and
// updates/s is perfbench's throughput unit.
func BenchmarkPokecChurn(b *testing.B) {
	edges, ops := pokecChurn(b, 100*512)
	for _, size := range []int{1, 100, 512} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			e, err := FromEdges(edges)
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < pokecLead; lo += size {
				if _, err := e.Apply(churnBatch(ops[lo:min(lo+size, pokecLead)], false)); err != nil {
					b.Fatal(err)
				}
			}
			fwd := ops[pokecLead:]
			var cycle []Batch
			for lo := 0; lo < len(fwd); lo += size {
				cycle = append(cycle, churnBatch(fwd[lo:min(lo+size, len(fwd))], false))
			}
			for lo := (len(fwd) - 1) / size * size; lo >= 0; lo -= size {
				inv := churnBatch(fwd[lo:min(lo+size, len(fwd))], true)
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

// BenchmarkPokecBuild times engine construction on batch-churn's graph:
// FromEdges on pokec-sim, which is what perfbench's setup_s times, and
// FromIndex of the state after the lead, which is what a snapshot load, a
// follower bootstrap or a tenant load runs. B/op is one build's
// allocation.
func BenchmarkPokecBuild(b *testing.B) {
	edges, ops := pokecChurn(b, 0)
	b.Run("FromEdges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromEdges(edges); err != nil {
				b.Fatal(err)
			}
		}
	})
	e, err := FromEdges(edges)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(ops); lo += 512 {
		if _, err := e.Apply(churnBatch(ops[lo:min(lo+512, len(ops))], false)); err != nil {
			b.Fatal(err)
		}
	}
	st := e.Index()
	b.Run("FromIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromIndex(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}
