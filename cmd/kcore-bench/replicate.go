package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/replicate"
	"kcore/internal/server"
)

// Replicate experiment: read scaling through WAL-shipping replication.
// It boots one primary kcore-serve (engine preloaded with an Erdős–Rényi
// base graph, replication publisher attached) and, per sweep point, N
// followers bootstrapped over /v1/replicate. Under a single writer churning
// mixed add/remove batches through the primary, concurrent readers issue
// GET /v1/core round-robin across every serving process. Recorded per
// follower count: read throughput and latency percentiles, each follower's
// catch-up time (StartFollower to lag 0), and the steady-state seq lag
// sampled during the churn. BENCH_replicate.json memorializes the sweep.
type replicateParams struct {
	readers int
	batch   int
	batches int
	baseN   int
	baseM   int
	seed    uint64
}

func replicateExperiment(cfg bench.Config) []bench.Result {
	cfg = cfg.WithDefaults()
	p := replicateParams{
		readers: 4,
		batch:   50,
		batches: max(cfg.Edges/100, 10),
		baseN:   max(cfg.Edges/2, 500),
		baseM:   max(3*cfg.Edges/2, 1500),
		seed:    cfg.Seed,
	}
	var results []bench.Result
	for _, nf := range []int{0, 1, 2} {
		fmt.Printf("=== replicate (followers=%d) === (%d readers, 1 writer x %d batches x %d updates, base %d/%d)\n",
			nf, p.readers, p.batches, p.batch, p.baseN, p.baseM)
		res, err := runReplicateLoad(p, nf)
		if err != nil {
			fatal(err)
		}
		results = append(results, res...)
	}
	return results
}

// servingProc is one loopback kcore-serve with its HTTP front door: a
// standalone server, or in the replicate fleet the primary or a follower.
type servingProc struct {
	srv    *server.Server
	client *server.Client
	fol    *replicate.Follower
}

func startServer(eng *kcore.Engine, opts server.Options) (*servingProc, error) {
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(l) }()
	client, err := server.NewClient("http://"+l.Addr().String(), nil)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return &servingProc{srv: srv, client: client, fol: opts.Follower}, nil
}

func (rp *servingProc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = rp.srv.Shutdown(ctx)
	if rp.fol != nil {
		rp.fol.Close()
	}
}

func runReplicateLoad(p replicateParams, numFollowers int) ([]bench.Result, error) {
	base := gen.ErdosRenyi(p.baseN, p.baseM, p.seed)
	engine, err := kcore.FromEdges(base.Edges())
	if err != nil {
		return nil, err
	}
	pub := replicate.NewPublisher(engine, replicate.PublisherOptions{})
	defer pub.Close()
	primary, err := startServer(engine, server.Options{Publisher: pub})
	if err != nil {
		return nil, err
	}
	defer primary.stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Followers bootstrap from the preloaded primary; catch-up time spans
	// StartFollower (snapshot transfer + replay) until zero lag against the
	// primary seq at start.
	fleet := []*servingProc{primary}
	var catchup []time.Duration
	bootSeq := engine.Seq()
	for i := 0; i < numFollowers; i++ {
		target := engine.Seq()
		t0 := time.Now()
		fol, err := replicate.StartFollower(ctx, primary.client.BaseURL(), replicate.FollowerOptions{
			PollInterval: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("follower %d: %w", i, err)
		}
		for fol.Engine().Seq() < target {
			time.Sleep(time.Millisecond)
		}
		catchup = append(catchup, time.Since(t0))
		fp, err := startServer(fol.Engine(), server.Options{Follower: fol})
		if err != nil {
			fol.Close()
			return nil, fmt.Errorf("follower %d server: %w", i, err)
		}
		defer fp.stop()
		fleet = append(fleet, fp)
	}

	var (
		mu       sync.Mutex
		readLat  []time.Duration
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	// Steady-state lag sampler: every few ms, the worst lag across the
	// follower fleet (0 without followers).
	var lagMu sync.Mutex
	var lagSum, lagMax, lagSamples uint64
	stopSample := make(chan struct{})
	var wgSample sync.WaitGroup
	wgSample.Add(1)
	go func() {
		defer wgSample.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				var worst uint64
				for _, rp := range fleet[1:] {
					if lag := rp.fol.Stats().SeqLag; lag > worst {
						worst = lag
					}
				}
				lagMu.Lock()
				lagSum += worst
				lagSamples++
				if worst > lagMax {
					lagMax = worst
				}
				lagMu.Unlock()
			}
		}
	}()

	// Readers round-robin across the whole serving fleet.
	stopReaders := make(chan struct{})
	var wgReaders sync.WaitGroup
	for r := 0; r < p.readers; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewPCG(p.seed+200, uint64(r)))
			var local []time.Duration
			for i := r; ; i++ {
				select {
				case <-stopReaders:
					mu.Lock()
					readLat = append(readLat, local...)
					mu.Unlock()
					return
				default:
				}
				c := fleet[i%len(fleet)].client
				t0 := time.Now()
				if _, err := c.Core(ctx, rng.IntN(p.baseN)); err != nil {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
				local = append(local, time.Since(t0))
			}
		}(r)
	}

	// One writer churns through the primary for the duration of the run.
	script := serveWriterScript(p.baseN, p.batches, p.batch, p.seed+7)
	start := time.Now()
	for _, b := range script {
		if _, err := primary.client.Batch(ctx, b); err != nil {
			fail(fmt.Errorf("writer: %w", err))
			break
		}
	}
	writerElapsed := time.Since(start)
	close(stopReaders)
	wgReaders.Wait()
	readElapsed := time.Since(start)
	close(stopSample)
	wgSample.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("replicate experiment: %w", firstErr)
	}

	// Drain: every follower reaches the primary's final seq, then served
	// cores must agree across the fleet (the differential backstop).
	final := engine.Seq()
	for i, rp := range fleet[1:] {
		deadline := time.Now().Add(30 * time.Second)
		for rp.fol.Engine().Seq() < final {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("follower %d stuck at seq %d, primary %d", i, rp.fol.Engine().Seq(), final)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	rng := rand.New(rand.NewPCG(p.seed+300, 0))
	for i := 0; i < 20; i++ {
		v := rng.IntN(p.baseN)
		want, err := primary.client.Core(cctx, v)
		if err != nil {
			return nil, err
		}
		for j, rp := range fleet[1:] {
			got, err := rp.client.Core(cctx, v)
			if err != nil {
				return nil, err
			}
			if got.Core != want.Core {
				return nil, fmt.Errorf("divergence: follower %d core(%d)=%d, primary %d", j, v, got.Core, want.Core)
			}
		}
	}

	lagMu.Lock()
	meanLag := float64(0)
	if lagSamples > 0 {
		meanLag = float64(lagSum) / float64(lagSamples)
	}
	maxLag := lagMax
	lagMu.Unlock()

	shared := map[string]any{
		"followers": numFollowers, "readers": p.readers,
		"batch_size": p.batch, "batches": p.batches,
		"base_n": p.baseN, "base_m": p.baseM, "seed": p.seed,
		"writer_wall_ns": writerElapsed.Nanoseconds(),
		"reads_per_sec":  float64(len(readLat)) / readElapsed.Seconds(),
		"mean_seq_lag":   meanLag,
		"max_seq_lag":    maxLag,
	}
	s := bench.Summarize(readLat)
	res := bench.Result{
		Name:       fmt.Sprintf("replicate/read-core/followers=%d", numFollowers),
		NsPerOp:    float64(s.P50.Nanoseconds()),
		Iterations: s.Count,
		Params:     bench.StampParams(s.Params(shared)),
	}
	fmt.Printf("%-32s p50 %10v  p99 %10v  %8.0f reads/s  lag mean %.1f max %d\n",
		res.Name, s.P50, s.P99, shared["reads_per_sec"], meanLag, maxLag)
	results := []bench.Result{res}
	if numFollowers > 0 {
		var worst time.Duration
		for _, c := range catchup {
			if c > worst {
				worst = c
			}
		}
		cres := bench.Result{
			Name:       fmt.Sprintf("replicate/catchup/followers=%d", numFollowers),
			NsPerOp:    float64(worst.Nanoseconds()),
			Iterations: numFollowers,
			Params: bench.StampParams(map[string]any{
				"followers": numFollowers, "base_n": p.baseN, "base_m": p.baseM,
				"snapshot_seq": bootSeq, "seed": p.seed,
			}),
		}
		fmt.Printf("%-32s %v (worst of %d followers, snapshot at seq %d)\n",
			cres.Name, worst.Round(time.Microsecond), numFollowers, bootSeq)
		results = append(results, cres)
	}
	return results, nil
}
