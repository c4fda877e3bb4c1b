package server

import (
	"slices"
	"testing"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/workload"
)

// BenchmarkWatchedApply measures Apply on a watched engine: the broadcast
// ring is attached with one in-process cursor, drained by its own
// goroutine as a watch handler would, and each iteration applies one
// 100-update skew-0.5 churn batch on BA(20000, 4). The batches run forward
// through a 5,000-update stream and then undo it in reverse, so the graph
// stays near its base however long the benchmark runs.
func BenchmarkWatchedApply(b *testing.B) {
	base := gen.BarabasiAlbert(20000, 4, 1)
	eng, err := kcore.FromEdges(base.Edges(), kcore.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	var forward []kcore.Batch
	ops := workload.Churn(base, 5000, workload.ChurnOptions{AddFraction: 0.5, Skew: 0.5, Seed: 2})
	for i := 0; i < len(ops); i += 100 {
		var batch kcore.Batch
		for _, op := range ops[i:min(i+100, len(ops))] {
			if op.Insert {
				batch = append(batch, kcore.Add(op.E.U, op.E.V))
			} else {
				batch = append(batch, kcore.Remove(op.E.U, op.E.V))
			}
		}
		forward = append(forward, batch)
	}
	stream := slices.Clone(forward)
	for i := len(forward) - 1; i >= 0; i-- {
		var undo kcore.Batch
		for j := len(forward[i]) - 1; j >= 0; j-- {
			if up := forward[i][j]; up.Op == kcore.OpAdd {
				undo = append(undo, kcore.Remove(up.U, up.V))
			} else {
				undo = append(undo, kcore.Add(up.U, up.V))
			}
		}
		stream = append(stream, undo)
	}

	ring := newBroadcastRing(eng, 4096)
	cursor := ring.subscribe(4096, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]ringEvent, 0, 64)
		for {
			events, _, wait, closed := cursor.poll(scratch)
			if closed {
				return
			}
			if len(events) == 0 {
				<-wait
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Apply(stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ring.encoded.Load())/float64(b.N), "changes/op")
	ring.close()
	<-done
}
