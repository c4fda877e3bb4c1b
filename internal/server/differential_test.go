package server

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"kcore"
	"kcore/internal/server/wire"
)

// writerScript generates one writer's deterministic batch sequence over its
// private vertex block [base, base+span). Every batch is valid against the
// writer's own edge history (the blocks are disjoint, so validity is
// independent of the other writers), mixing adds and removes.
func writerScript(w, batches, batchSize int, seed uint64) []kcore.Batch {
	const span = 64
	base := w * span
	rng := rand.New(rand.NewPCG(seed, uint64(w)))
	present := map[[2]int]bool{}
	var presentList [][2]int
	out := make([]kcore.Batch, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make(kcore.Batch, 0, batchSize)
		for len(batch) < batchSize {
			if len(presentList) > 0 && rng.Float64() < 0.35 {
				i := rng.IntN(len(presentList))
				e := presentList[i]
				presentList[i] = presentList[len(presentList)-1]
				presentList = presentList[:len(presentList)-1]
				delete(present, e)
				batch = append(batch, kcore.Remove(e[0], e[1]))
				continue
			}
			u := base + rng.IntN(span)
			v := base + rng.IntN(span)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if present[[2]int{u, v}] {
				continue
			}
			present[[2]int{u, v}] = true
			presentList = append(presentList, [2]int{u, v})
			batch = append(batch, kcore.Add(u, v))
		}
		out = append(out, batch)
	}
	return out
}

func toWire(b kcore.Batch) []wire.Update {
	out := make([]wire.Update, len(b))
	for i, u := range b {
		out[i] = wire.Update{Op: u.Op.String(), U: u.U, V: u.V}
	}
	return out
}

// TestServeDifferential is the acceptance check for the whole service
// stack: N concurrent HTTP writers (through the ingest coalescer), M
// snapshot readers, and one SSE watcher, all live at once — and the final
// core numbers must be bit-identical to applying the same update scripts
// through a single sequential sequence of Apply calls on a fresh engine.
// Run it with -race and GOMAXPROCS=4 (CI does).
func TestServeDifferential(t *testing.T) {
	const (
		writers   = 6
		readers   = 3
		batches   = 25
		batchSize = 12
		seed      = 7
	)
	scripts := make([][]kcore.Batch, writers)
	for w := range scripts {
		scripts[w] = writerScript(w, batches, batchSize, seed)
	}

	engine := kcore.NewEngine()
	_, c := newTestServer(t, engine, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One SSE watcher with a large buffer rides along for the whole run.
	events, err := c.Watch(ctx, WatchOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	watcherDone := make(chan int, 1)
	go func() {
		n := 0
		for ev := range events {
			switch ev.Type {
			case wire.EventChange:
				if ev.Change.OldCore == ev.Change.NewCore {
					t.Errorf("change event with no transition: %+v", ev.Change)
				}
				n++
			case wire.EventHello, wire.EventLagged:
			}
		}
		watcherDone <- n
	}()

	var wgWriters, wgReaders sync.WaitGroup
	errCh := make(chan error, writers+readers)

	// Writers: each sends its batches in order, waiting for each response
	// (so the writer's own updates keep their order; cross-writer
	// interleaving is arbitrary but harmless on disjoint vertex blocks).
	// Odd-numbered writers speak the binary wire protocol, so JSON and
	// binary ingest interleave through the same coalescer.
	cb := binaryClient(t, c)
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			cw := c
			if w%2 == 1 {
				cw = cb
			}
			for _, b := range scripts[w] {
				if _, err := cw.Batch(ctx, toWire(b)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// Readers: hammer the snapshot endpoints until the writers finish,
	// checking per-reader seq monotonicity (views never go backwards).
	stopReaders := make(chan struct{})
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			var lastSeq uint64
			rng := rand.New(rand.NewPCG(seed+1, uint64(r)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				var seq uint64
				switch rng.IntN(3) {
				case 0:
					resp, err := c.Core(ctx, rng.IntN(writers*64))
					if err != nil {
						errCh <- err
						return
					}
					seq = resp.Seq
				case 1:
					resp, err := c.KCore(ctx, rng.IntN(4))
					if err != nil {
						errCh <- err
						return
					}
					seq = resp.Seq
				default:
					resp, err := c.Stats(ctx)
					if err != nil {
						errCh <- err
						return
					}
					seq = resp.Seq
				}
				if seq < lastSeq {
					t.Errorf("reader %d observed seq going backwards: %d then %d", r, lastSeq, seq)
					return
				}
				lastSeq = seq
			}
		}(r)
	}

	// Wait for the writers, then release the readers and the watcher,
	// surfacing the first client error along the way.
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		wgWriters.Wait()
	}()
	var firstErr error
	waitWriters := time.After(60 * time.Second)
poll:
	for {
		select {
		case err := <-errCh:
			if firstErr == nil {
				firstErr = err
			}
			cancel() // unwind everything
		case <-writersDone:
			break poll
		case <-waitWriters:
			t.Fatal("writers did not finish in time")
		}
	}
	close(stopReaders)
	wgReaders.Wait()
	if firstErr != nil {
		t.Fatalf("concurrent client failed: %v", firstErr)
	}
	if cb.binaryOff.Load() {
		t.Fatal("binary writers silently fell back to JSON")
	}
	cancel() // end the watch stream
	select {
	case n := <-watcherDone:
		t.Logf("watcher observed %d change events", n)
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never finished")
	}

	// Sequential reference: the same scripts through one engine, writer by
	// writer, batch by batch — one Apply stream, no server, no concurrency.
	ref := kcore.NewEngine()
	for _, script := range scripts {
		for _, b := range script {
			if _, err := ref.Apply(b); err != nil {
				t.Fatalf("reference Apply: %v", err)
			}
		}
	}
	got, want := engine.Cores(), ref.Cores()
	if len(got) != len(want) {
		t.Fatalf("vertex counts differ: served %d, reference %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core(%d): served %d, reference %d", v, got[v], want[v])
		}
	}
	if err := engine.Validate(); err != nil {
		t.Fatalf("served engine fails invariant check: %v", err)
	}
	if engine.Seq() != ref.Seq() {
		t.Fatalf("seq: served %d, reference %d", engine.Seq(), ref.Seq())
	}
}
