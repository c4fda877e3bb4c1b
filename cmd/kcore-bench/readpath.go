package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/workload"
)

// Reads-under-write-load contention experiment: measured evidence for the
// epoch-published read path (PR 10). One writer goroutine streams churn
// batches through Apply while reader goroutines hammer the point-read and
// snapshot APIs; the identical workload runs twice:
//
//   - readpath/reads-locked emulates the pre-epoch read side exactly: every
//     engine access goes through one external sync.RWMutex — the writer
//     wraps each Apply in Lock, readers wrap each query in RLock — so
//     readers stall behind every in-flight batch, as they did when the
//     engine's own RWMutex guarded queries.
//   - readpath/reads-epoch drops the wrapper and calls the lock-free APIs
//     directly, which is the shipped configuration.
//
// The headline number is reads/sec under concurrent ingest; the writer's
// applies/sec is recorded alongside to show ingest is not sacrificed. The
// result consistency of the two paths is not re-proven here — that is the
// job of TestReadLinearizabilityDifferential — this experiment only prices
// them. With -min-speedup the run doubles as a CI guard.

const (
	readpathReaders  = 4
	readpathBatch    = 256
	readpathWindowMS = 400
	readpathRounds   = 2
)

// readpathExperiment runs both modes and returns the structured results.
func readpathExperiment(cfg bench.Config, minSpeedup float64) []bench.Result {
	cfg = cfg.WithDefaults()
	n := max(cfg.Edges/2, 200)
	base := gen.ErdosRenyi(n, 3*n/2, cfg.Seed)
	baseEdges := base.Edges()
	ops := workload.Churn(base, cfg.Edges, workload.ChurnOptions{
		AddFraction: 0.5, Skew: 0.2, Seed: cfg.Seed + 1})

	// The forward batches are valid exactly once from the base state, so
	// the writer alternates a forward pass with its inverse (each batch
	// reversed and each op flipped), returning to the base state — an
	// endless valid stream.
	var forward []kcore.Batch
	for start := 0; start < len(ops); start += readpathBatch {
		end := min(start+readpathBatch, len(ops))
		b := make(kcore.Batch, 0, end-start)
		for _, op := range ops[start:end] {
			if op.Insert {
				b = append(b, kcore.Add(op.E.U, op.E.V))
			} else {
				b = append(b, kcore.Remove(op.E.U, op.E.V))
			}
		}
		forward = append(forward, b)
	}
	var stream []kcore.Batch
	stream = append(stream, forward...)
	for i := len(forward) - 1; i >= 0; i-- {
		src := forward[i]
		inv := make(kcore.Batch, 0, len(src))
		for j := len(src) - 1; j >= 0; j-- {
			up := src[j]
			if up.Op == kcore.OpAdd {
				inv = append(inv, kcore.Remove(up.U, up.V))
			} else {
				inv = append(inv, kcore.Add(up.U, up.V))
			}
		}
		stream = append(stream, inv)
	}

	run := func(locked bool) (nsPerRead, readsPerSec, appliesPerSec float64) {
		e, err := kcore.FromEdges(baseEdges)
		if err != nil {
			fatal(err)
		}
		var rw sync.RWMutex // the emulated pre-epoch engine lock
		var reads, applies atomic.Uint64
		done := make(chan struct{})
		var wg sync.WaitGroup

		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % len(stream) {
				select {
				case <-done:
					return
				default:
				}
				if locked {
					rw.Lock()
				}
				_, err := e.Apply(stream[i])
				if locked {
					rw.Unlock()
				}
				if err != nil {
					fatal(fmt.Errorf("readpath writer: %w", err))
				}
				applies.Add(1)
			}
		}()
		for r := 0; r < readpathReaders; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				local := uint64(0)
				v := r
				for {
					select {
					case <-done:
						reads.Add(local)
						return
					default:
					}
					if locked {
						rw.RLock()
					}
					if local%64 == 63 {
						// A snapshot-shaped read among the point reads,
						// like the /v1/kcore and /v1/stats handlers mix.
						snap := e.View()
						_ = snap.Degeneracy()
						_, _, _, _ = e.Counts()
					} else {
						_, _ = e.CoreSeq(v)
					}
					if locked {
						rw.RUnlock()
					}
					local++
					v++
					if v >= n {
						v = 0
					}
				}
			}(r)
		}
		start := time.Now()
		time.Sleep(readpathWindowMS * time.Millisecond)
		close(done)
		wg.Wait()
		elapsed := time.Since(start)

		totalReads := float64(reads.Load())
		if totalReads == 0 {
			totalReads = 1
		}
		readsPerSec = totalReads / elapsed.Seconds()
		appliesPerSec = float64(applies.Load()) / elapsed.Seconds()
		// ns/op is reader-time per read: R readers ran for the window, so
		// the per-read latency each reader experienced is R*elapsed/reads.
		nsPerRead = float64(readpathReaders) * float64(elapsed.Nanoseconds()) / totalReads
		return
	}

	row := func(name string, locked bool) bench.Result {
		var best bench.Result
		for round := 0; round < readpathRounds; round++ {
			ns, rps, aps := run(locked)
			if best.Name == "" || ns < best.NsPerOp {
				best = bench.Result{
					Name:       name,
					NsPerOp:    ns,
					Iterations: int(rps * readpathWindowMS / 1000),
					Params: bench.StampParams(map[string]any{
						"readers": readpathReaders, "batch_size": readpathBatch,
						"window_ms": readpathWindowMS, "edges": cfg.Edges,
						"graph": "erdos-renyi", "seed": cfg.Seed,
						"reads_per_sec": rps, "applies_per_sec": aps,
					}),
				}
			}
		}
		fmt.Fprintf(cfg.Out, "%-28s %14.0f %12s %12s\n", best.Name, best.NsPerOp, "-", "-")
		return best
	}

	bench.PrintResultHeader(cfg.Out)
	lockedRes := row("readpath/reads-locked", true)
	epochRes := row("readpath/reads-epoch", false)

	speedup := lockedRes.NsPerOp / epochRes.NsPerOp
	epochRes.Params["speedup_vs_locked"] = speedup
	fmt.Fprintf(cfg.Out, "%-28s %.2fx (locked %.0f ns/read, epoch %.0f ns/read)\n",
		"readpath/read-speedup", speedup,
		lockedRes.NsPerOp, epochRes.NsPerOp)
	if minSpeedup > 0 && speedup < minSpeedup {
		fatal(fmt.Errorf("readpath: epoch read speedup %.2fx under write load is below the required %.2fx",
			speedup, minSpeedup))
	}
	return []bench.Result{lockedRes, epochRes}
}
