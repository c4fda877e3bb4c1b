package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/persist"
	"kcore/internal/server"
	"kcore/internal/server/wire"
)

// Serve2 experiment: the binary wire protocol against JSON.
//
//   - serve2/ingest-json vs serve2/ingest-binary measure the per-batch wire
//     cost of the ingest path (request decode + ack encode, the work that
//     differs between the protocols; the engine Apply between them is shared
//     and excluded) through testing.Benchmark, with allocation counts — the
//     binary path must stay allocation-free in steady state.
//   - serve2/http-ingest-{json,binary} run the same batch script end to end
//     through POST /v1/batch on a loopback server, one protocol per fresh
//     server, reporting p50 per-batch latency and updates/sec.
//   - serve2/http-query-kcore times GET /v1/kcore on an idle loopback
//     server, the one query route no other benchmark times (perfbench's
//     serve-read-write reads GET /v1/core).
//   - serve2/fanout-N sweeps the watch broadcast ring with N in-process
//     subscribers (see server.FanoutLoad for why they are not real TCP
//     watchers: 2 file descriptors per connection caps a 10k run above
//     typical nofile limits, and sockets would dominate the measurement).
//
// minSpeedup, when positive, turns the run into a guard: it fails unless
// binary ingest beats JSON ingest by at least that factor.
func serve2Experiment(cfg bench.Config, fanout []int, minSpeedup float64) []bench.Result {
	cfg = cfg.WithDefaults()
	const batchSize = 100
	fmt.Printf("=== serve2 === (batch_size %d, fanout %v)\n", batchSize, fanout)

	results := ingestCodecBench(cfg, batchSize, minSpeedup)
	httpRes, err := httpIngestBench(cfg, batchSize)
	if err != nil {
		fatal(err)
	}
	results = append(results, httpRes...)
	kcoreRes, err := httpQueryKCoreBench(cfg)
	if err != nil {
		fatal(err)
	}
	results = append(results, kcoreRes)
	for _, n := range fanout {
		res, err := fanoutBench(cfg, n)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// serve2Batch builds one valid batchSize-update batch (a path graph) in both
// representations.
func serve2Batch(batchSize int) (jsonBody, binBody []byte) {
	updates := make([]wire.Update, batchSize)
	kups := make([]kcore.Update, batchSize)
	for i := range updates {
		updates[i] = wire.Update{Op: wire.OpAdd, U: i, V: i + 1}
		kups[i] = kcore.Add(i, i+1)
	}
	jsonBody, err := json.Marshal(wire.BatchRequest{Updates: updates})
	if err != nil {
		fatal(err)
	}
	binBody, err = persist.AppendBatchFrame(nil, kups)
	if err != nil {
		fatal(err)
	}
	return jsonBody, binBody
}

// ingestCodecBench measures the protocol-dependent work of one ingest
// request: decode the body into engine updates, encode the ack.
func ingestCodecBench(cfg bench.Config, batchSize int, minSpeedup float64) []bench.Result {
	jsonBody, binBody := serve2Batch(batchSize)
	ack := wire.BatchResponse{Seq: 12345, Applied: batchSize, FlushedWith: 1,
		CoreChanged: []int{1, 2, 3, 4, 5, 6, 7, 8}, Visited: 4 * batchSize}
	params := map[string]any{"batch_size": batchSize}

	bench.PrintResultHeader(cfg.Out)
	jsonRes := bench.RunMeasured(cfg.Out, "serve2/ingest-json", params, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req wire.BatchRequest
			if err := json.Unmarshal(jsonBody, &req); err != nil {
				b.Fatal(err)
			}
			batch := make(kcore.Batch, 0, len(req.Updates))
			for _, u := range req.Updates {
				switch u.Op {
				case wire.OpAdd:
					batch = append(batch, kcore.Add(u.U, u.V))
				case wire.OpRemove:
					batch = append(batch, kcore.Remove(u.U, u.V))
				default:
					b.Fatalf("bad op %q", u.Op)
				}
			}
			if _, err := json.Marshal(&ack); err != nil {
				b.Fatal(err)
			}
		}
	})
	var scratch []kcore.Update
	var ackBuf []byte
	binRes := bench.RunMeasured(cfg.Out, "serve2/ingest-binary", params, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			updates, err := persist.DecodeBatchFrame(binBody, scratch)
			if err != nil {
				b.Fatal(err)
			}
			scratch = updates
			ackBuf = wire.AppendBatchAck(ackBuf[:0], &ack)
		}
	})

	speedup := jsonRes.NsPerOp / binRes.NsPerOp
	binRes.Params["speedup_vs_json"] = speedup
	fmt.Printf("%-28s %.1fx (json %.0f ns/batch, binary %.0f ns/batch)\n",
		"serve2/ingest-speedup", speedup, jsonRes.NsPerOp, binRes.NsPerOp)
	if minSpeedup > 0 && speedup < minSpeedup {
		fatal(fmt.Errorf("serve2: binary ingest speedup %.2fx is below the required %.2fx",
			speedup, minSpeedup))
	}
	return []bench.Result{jsonRes, binRes}
}

// httpIngestBench runs the same writer script through POST /v1/batch end to
// end, once per protocol, each against a fresh loopback server.
func httpIngestBench(cfg bench.Config, batchSize int) ([]bench.Result, error) {
	batches := max(cfg.Edges/batchSize, 10)
	script := serveWriterScript(0, batches, batchSize, cfg.Seed)
	var out []bench.Result
	for _, binary := range []bool{false, true} {
		name := "serve2/http-ingest-json"
		if binary {
			name = "serve2/http-ingest-binary"
		}
		lat, elapsed, err := runHTTPIngest(script, binary)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s := bench.Summarize(lat)
		updates := batches * batchSize
		res := bench.Result{
			Name:       name,
			NsPerOp:    float64(s.P50.Nanoseconds()),
			Iterations: s.Count,
			Params: bench.StampParams(s.Params(map[string]any{
				"batch_size": batchSize, "batches": batches,
				"wall_ns":         elapsed.Nanoseconds(),
				"updates_per_sec": float64(updates) / elapsed.Seconds(),
			})),
		}
		fmt.Printf("%-26s p50 %10v  p99 %10v  %8.0f updates/sec\n",
			name, s.P50, s.P99, float64(updates)/elapsed.Seconds())
		out = append(out, res)
	}
	return out, nil
}

func runHTTPIngest(script [][]wire.Update, binary bool) ([]time.Duration, time.Duration, error) {
	sp, err := startServer(kcore.NewEngine(), server.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer sp.stop()
	sp.client.Binary = binary
	ctx := context.Background()
	lat := make([]time.Duration, 0, len(script))
	start := time.Now()
	for _, b := range script {
		t0 := time.Now()
		if _, err := sp.client.Batch(ctx, b); err != nil {
			return nil, 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, time.Since(start), nil
}

// serveWriterScript builds one writer's valid batch sequence over the
// private vertex block [base, base+64): mixed adds and removes against the
// writer's own edge history, mirroring the differential test's generator.
func serveWriterScript(base, batches, batchSize int, seed uint64) [][]wire.Update {
	const span = 64
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	present := map[[2]int]bool{}
	var presentList [][2]int
	out := make([][]wire.Update, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make([]wire.Update, 0, batchSize)
		for len(batch) < batchSize {
			if len(presentList) > 0 && rng.Float64() < 0.35 {
				i := rng.IntN(len(presentList))
				e := presentList[i]
				presentList[i] = presentList[len(presentList)-1]
				presentList = presentList[:len(presentList)-1]
				delete(present, e)
				batch = append(batch, wire.Update{Op: wire.OpRemove, U: e[0], V: e[1]})
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
			batch = append(batch, wire.Update{Op: wire.OpAdd, U: u, V: v})
		}
		out = append(out, batch)
	}
	return out
}

// httpQueryKCoreBench times GET /v1/kcore with k = 2, 3, 4 in turn on an
// idle loopback server over an Erdős–Rényi graph of edges/2 vertices and
// 3·edges/2 edges. The response lists every k-core vertex, so its cost
// grows with the core's size, not with the engine's update path.
func httpQueryKCoreBench(cfg bench.Config) (bench.Result, error) {
	const queries = 300
	n, m := max(cfg.Edges/2, 500), max(3*cfg.Edges/2, 1500)
	engine, err := kcore.FromEdges(gen.ErdosRenyi(n, m, cfg.Seed).Edges(), kcore.WithSeed(cfg.Seed))
	if err != nil {
		return bench.Result{}, err
	}
	sp, err := startServer(engine, server.Options{})
	if err != nil {
		return bench.Result{}, err
	}
	defer sp.stop()
	ctx := context.Background()
	lat := make([]time.Duration, 0, queries)
	vertices := 0
	for i := 0; i < queries; i++ {
		t0 := time.Now()
		resp, err := sp.client.KCore(ctx, 2+i%3)
		if err != nil {
			return bench.Result{}, fmt.Errorf("serve2/http-query-kcore: %w", err)
		}
		lat = append(lat, time.Since(t0))
		vertices += resp.Count
	}
	s := bench.Summarize(lat)
	const name = "serve2/http-query-kcore"
	fmt.Printf("%-26s p50 %10v  p99 %10v  %d queries, k = 2..4, %.0f vertices per answer\n",
		name, s.P50, s.P99, s.Count, float64(vertices)/queries)
	return bench.Result{
		Name:       name,
		NsPerOp:    float64(s.P50.Nanoseconds()),
		Iterations: s.Count,
		Params: bench.StampParams(s.Params(map[string]any{
			"base_n": n, "base_m": m, "k": "2..4", "seed": cfg.Seed,
			"vertices_per_answer": float64(vertices) / queries,
		})),
	}, nil
}

// fanoutBench runs one watcher tier through the broadcast ring.
func fanoutBench(cfg bench.Config, watchers int) (bench.Result, error) {
	changes := max(min(cfg.Edges/10, 1000), 100)
	st, err := server.FanoutLoad(watchers, changes, 4096)
	if err != nil {
		return bench.Result{}, err
	}
	if st.Encoded != st.Changes {
		return bench.Result{}, fmt.Errorf("fanout-%d: %d events encoded %d times — the ring must encode once per event, independent of %d watchers",
			watchers, st.Changes, st.Encoded, watchers)
	}
	perDelivery := float64(st.Elapsed.Nanoseconds()) / float64(max(st.Delivered, 1))
	name := fmt.Sprintf("serve2/fanout-%d", watchers)
	res := bench.Result{
		Name:       name,
		NsPerOp:    perDelivery,
		Iterations: int(st.Delivered),
		Params: bench.StampParams(map[string]any{
			"watchers": watchers, "changes": st.Changes,
			"delivered": st.Delivered, "dropped": st.Dropped,
			"encoded":            st.Encoded,
			"wall_ns":            st.Elapsed.Nanoseconds(),
			"deliveries_per_sec": float64(st.Delivered) / st.Elapsed.Seconds(),
		}),
	}
	fmt.Printf("%-26s %8.1f ns/delivery  %d watchers x %d events = %d delivered (%d dropped) in %v\n",
		name, perDelivery, watchers, st.Changes, st.Delivered, st.Dropped,
		st.Elapsed.Round(time.Millisecond))
	return res, nil
}
