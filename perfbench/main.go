// Command perfbench is the repository benchmark. One run drives one named
// workload for a fixed time against the repository's own layers (the root
// engine, internal/korder, internal/server with its wire codecs and ingest
// coalescer, internal/persist and internal/replicate), checks the final
// state, and prints one JSON result line. See README.md.
//
//	perfbench --workload batch-churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a traced
// run, recorded by this program around public calls and kept in memory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kcore"
	"kcore/internal/datasets"
	"kcore/internal/graph"
	"kcore/internal/persist"
	"kcore/internal/workload"
)

// setupRepeats is how many times a run sets its system up; setup_s is the
// median.
const setupRepeats = 21

// churnLead is how many updates of a churn stream are applied once, during
// the warm-up, before its forward/inverse cycle starts (see churnCycles).
const churnLead = 16 * 512

// durabilityTail is how long the served workloads write, untimed, between
// the snapshot that ends their run and the durability check.
const durabilityTail = time.Second

type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	scratch string // directory for data dirs, inside the working directory
}

// A bench drives one system under test: the library engine or the served
// stack.
type bench interface {
	// setup builds one ready instance, replacing any earlier one; the caller
	// times it.
	setup() error
	// teardown releases the current instance, if any.
	teardown()
	// engine is the current instance's engine.
	engine() *kcore.Engine
	// drive applies load until ph.deadline, filling ph.recs.
	drive(ph *phase) error
	// layers adds the per-layer metrics only this system has, for the traced
	// phase ph.
	layers(ph *phase, m metrics) error
	// check verifies the final state and ends the instance.
	check() error
}

type workloadDef struct {
	name    string
	dataset string
	// streams generates the write streams, one per driving connection.
	streams func(g *graph.Undirected, seed uint64) []stream
	build   func(cfg config, edges [][2]int, n int, streams []stream) bench
}

// churn is the skewed churn of the churn workloads: the lead, then ops more
// updates.
func churn(g *graph.Undirected, ops int, seed uint64) []workload.Op {
	return workload.Churn(g, churnLead+ops, workload.ChurnOptions{Skew: 0.5, Seed: seed})
}

func libBuild(single bool) func(config, [][2]int, int, []stream) bench {
	return func(cfg config, edges [][2]int, _ int, streams []stream) bench {
		return &libBench{edges: edges, stream: streams[0], single: single, seed: cfg.seed, scratch: cfg.scratch}
	}
}

func serveBuild(policy persist.SyncPolicy, binary, reader bool) func(config, [][2]int, int, []stream) bench {
	return func(cfg config, edges [][2]int, n int, streams []stream) bench {
		return newServeBench(cfg, edges, n, policy, binary, reader, streams)
	}
}

var workloads = []workloadDef{
	{name: "paper-edge-stream", dataset: "livejournal-sim", build: libBuild(true),
		streams: func(g *graph.Undirected, seed uint64) []stream {
			return []stream{edgeCycles(g, 20000, seed)}
		}},
	{name: "batch-churn", dataset: "pokec-sim", build: libBuild(false),
		streams: func(g *graph.Undirected, seed uint64) []stream {
			return []stream{churnCycles(churn(g, 100*512, seed), churnLead, 512)}
		}},
	{name: "serve-read-write", dataset: "pokec-sim", build: serveBuild(persist.SyncInterval, false, true),
		streams: func(g *graph.Undirected, seed uint64) []stream {
			return []stream{churnCycles(churn(g, 100*100, seed), churnLead, 100)}
		}},
	{name: "serve-durable-ingest", dataset: "pokec-sim", build: serveBuild(persist.SyncAlways, true, false),
		streams: func(g *graph.Undirected, seed uint64) []stream {
			parts := partitionOps(churn(g, 100*100, seed), 2)
			return []stream{churnCycles(parts[0], churnLead/2, 100), churnCycles(parts[1], churnLead/2, 100)}
		}},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of paper-edge-stream, batch-churn, serve-read-write, serve-durable-ingest) and --seconds > 0\n")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scratch: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
	}
	res, err := execute(cfg, *def)
	os.RemoveAll(cfg.scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// execute runs one workload: set-up, warm-up, the measured phase(s), the
// correctness check, and (traced) the offline layer replays. It prints a
// report line of stamps and workload-specific figures before returning the
// result.
func execute(cfg config, def workloadDef) (result, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return result{}, err
	}
	ds, err := datasets.ByName(def.dataset)
	if err != nil {
		return result{}, err
	}
	g := ds.Build()
	edges := g.Edges()
	b := def.build(cfg, edges, g.NumVertices(), def.streams(g, cfg.seed))
	defer b.teardown()

	reps := setupRepeats
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		b.teardown()
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep := map[string]any{
		"workload": def.name, "dataset": def.dataset, "seed": cfg.seed,
		"vertices": g.NumVertices(), "edges": len(edges), "degeneracy": b.engine().Degeneracy(),
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seconds": cfg.seconds.Seconds(), "trace": cfg.trace, "setup_s_samples": setups,
	}
	sb, served := b.(*serveBench)
	if served {
		rep["fsync"] = sb.policy.String()
	}
	res := result{Metrics: metrics{}}
	// An operation that fails ends its phase; the run goes on so that the
	// result reports it (correct is then false) instead of exiting.
	count := func(ph *phase, err error, what string) {
		a, f := attempts(ph)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
			f = max(f, 1)
		}
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	}
	warm, err := runPhase(b, min(time.Second, cfg.seconds/5), false)
	count(warm, err, "warm-up")

	var traced *phase
	var start [][2]int
	if !cfg.trace {
		ph, err := runPhase(b, cfg.seconds, false)
		count(ph, err, "measured phase")
		endToEnd(ph, setups, res.Metrics, rep)
		ph = nil
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics.set("heap_live_mb", "MB", float64(ms.HeapAlloc)/1e6)
	} else {
		plain, err := runPhase(b, cfg.seconds/2, false)
		count(plain, err, "untraced phase")
		start = b.engine().Edges()
		traced, err = runPhase(b, cfg.seconds/2, true)
		count(traced, err, "traced phase")
		phaseLayers(plain, traced, served && sb.binary, res.Metrics)
		if err := b.layers(traced, res.Metrics); err != nil {
			count(&phase{}, err, "layer counters")
		}
	}
	if served {
		// Recovery replays the WAL written since the last snapshot. A
		// snapshot followed by a short tail of writes keeps that replay, and
		// so the check's time, the same at any run length, and the check
		// still recovers through both the snapshot and the WAL.
		if _, err := sb.store.Snapshot(); err != nil {
			count(&phase{}, err, "snapshot before the durability tail")
		}
		tail, err := runPhase(b, durabilityTail, false)
		count(tail, err, "durability tail")
	}
	if err := b.check(); err != nil {
		count(&phase{}, err, "correctness check")
	}
	b.teardown()
	res.Correct = res.Failed == 0
	if traced != nil {
		if err := replayLayers(start, traced, res.Metrics); err != nil {
			return result{}, err
		}
	}
	rep["failed_fraction"] = ratio(float64(res.Failed), float64(res.Attempted))
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	return res, nil
}

// runPhase drives b for d and returns what the phase recorded.
func runPhase(b bench, d time.Duration, trace bool) (*phase, error) {
	ph := &phase{trace: trace}
	runtime.ReadMemStats(&ph.mem0)
	ph.exec0 = b.engine().ExecStats()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(d)
	err := b.drive(ph)
	ph.elapsed = time.Since(ph.start)
	ph.exec1 = b.engine().ExecStats()
	runtime.ReadMemStats(&ph.mem1)
	return ph, err
}

func attempts(ph *phase) (attempted, failed int64) {
	for _, r := range ph.recs {
		attempted += int64(len(r.writes)+len(r.reads)) + r.failed
		failed += r.failed
	}
	return attempted, failed
}

// endToEnd sets the untraced metrics of a measured phase and reports the
// workload-specific ones with their sample counts.
func endToEnd(ph *phase, setups []float64, m metrics, rep map[string]any) {
	m.set("setup_s", "s", median(setups))
	m.set("updates_per_s", "1/s", ph.rate())
	writes := merged(ph, func(r *rec) []sample { return r.writes })
	q := quantiles(writes, 0.5, 0.99)
	m.set("write_p50_us", "us", q[0])
	rep["write_p99_us"], rep["write_samples"] = q[1], len(writes)
	rep["updates"] = ph.updates()
	var ins, rem int64
	var insT, remT time.Duration
	for _, r := range ph.recs {
		ins, rem, insT, remT = ins+r.insertN, rem+r.removeN, insT+r.insertT, remT+r.removeT
	}
	if ins+rem > 0 {
		rep["insert_updates_per_s"] = float64(ins) / insT.Seconds()
		rep["remove_updates_per_s"] = float64(rem) / remT.Seconds()
		rep["insert_samples"], rep["remove_samples"] = ins, rem
	}
	if reads := merged(ph, func(r *rec) []sample { return r.reads }); len(reads) > 0 {
		q := quantiles(reads, 0.5, 0.99)
		rep["reads_per_s"] = float64(len(reads)) / ph.elapsed.Seconds()
		rep["read_p50_us"], rep["read_p99_us"], rep["read_samples"] = q[0], q[1], len(reads)
	}
}
