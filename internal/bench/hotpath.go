package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/order"
	"kcore/internal/workload"
)

// Hot-path micro-experiments: measured evidence for the allocation-free
// update path (arena-backed order lists, hybrid adjacency index, pooled
// per-update scratch). Each experiment runs through testing.Benchmark and
// reports ns/op, B/op and allocs/op; kcore-bench -experiment hotpath
// renders the table and, with -json, appends the results to a
// machine-readable report (see Report).

// Result is one measured benchmark, serializable into the BENCH_*.json
// trajectory format.
//
// AllocsPerOp and BytesPerOp are pointers so that a result which never
// measured allocations (the latency-style experiments: serve, replicate,
// chaos) omits the fields entirely instead of reporting a misleading 0,
// while a genuinely measured zero — the whole point of the hot-path
// experiments — still serializes as 0. Use Measured to set them.
type Result struct {
	Name        string         `json:"name"`
	NsPerOp     float64        `json:"ns_per_op"`
	AllocsPerOp *int64         `json:"allocs_per_op,omitempty"`
	BytesPerOp  *int64         `json:"bytes_per_op,omitempty"`
	Iterations  int            `json:"iterations"`
	Params      map[string]any `json:"params,omitempty"`
}

// Measured stamps an allocation measurement onto the result.
func (r *Result) Measured(allocsPerOp, bytesPerOp int64) {
	r.AllocsPerOp = &allocsPerOp
	r.BytesPerOp = &bytesPerOp
}

// Report is the one-document JSON format kcore-bench -json writes and
// future BENCH_*.json files append to.
type Report struct {
	Schema  string   `json:"schema"` // "kcore-bench/v1"
	Go      string   `json:"go"`
	Arch    string   `json:"arch"`
	Results []Result `json:"results"`
}

// ReportSchema identifies the current JSON report format.
const ReportSchema = "kcore-bench/v1"

// NewReport returns an empty report stamped with the runtime environment.
// Results starts non-nil so an empty report marshals as "results": [].
func NewReport() *Report {
	return &Report{Schema: ReportSchema, Go: runtime.Version(), Arch: runtime.GOARCH,
		Results: []Result{}}
}

// Write serializes the report as one indented JSON document.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// benchRunner indirects testing.Benchmark so tests can substitute a
// single-iteration runner instead of paying ~1s of auto-tuning per
// experiment.
var benchRunner = testing.Benchmark

// PrintResultHeader writes the column header RunMeasured's rows line up
// under.
func PrintResultHeader(w io.Writer) {
	fmt.Fprintf(w, "%-28s %14s %12s %12s\n", "experiment", "ns/op", "B/op", "allocs/op")
}

// StampParams copies params (so callers' maps stay untouched) and stamps
// the runtime environment every measured result must carry for
// reproducibility: GOMAXPROCS and the physical CPU count. Experiment-
// specific worker counts are the caller's responsibility.
func StampParams(params map[string]any) map[string]any {
	out := make(map[string]any, len(params)+2)
	for k, v := range params {
		out[k] = v
	}
	out["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out["cpus"] = runtime.NumCPU()
	return out
}

// RunMeasured runs fn through the benchmark runner, prints one table row
// to w, and returns the structured result. It is the shared measurement
// path for Hotpath and kcore-bench's engine-level experiments. The result's
// params are stamped with GOMAXPROCS and the CPU count.
func RunMeasured(w io.Writer, name string, params map[string]any, fn func(b *testing.B)) Result {
	r := benchRunner(fn)
	res := Result{
		Name:       name,
		NsPerOp:    float64(r.NsPerOp()),
		Iterations: r.N,
		Params:     StampParams(params),
	}
	res.Measured(r.AllocsPerOp(), r.AllocedBytesPerOp())
	fmt.Fprintf(w, "%-28s %14.0f %12d %12d\n",
		res.Name, res.NsPerOp, *res.BytesPerOp, *res.AllocsPerOp)
	return res
}

// hotpathExperiment is one named benchmark closure.
type hotpathExperiment struct {
	name   string
	params map[string]any
	fn     func(b *testing.B)
}

// hotpathExperiments builds the experiment list. Sizes follow cfg.Edges
// (default 10000) where a workload size applies.
func hotpathExperiments(cfg Config) []hotpathExperiment {
	// The churn workload toggles a sample of the fixture graph's edges; the
	// sample is capped so it stays a subset of the 8000-edge fixture.
	churnSample := min(cfg.Edges, 4000)
	addRemoveG, addRemoveHubs := hybridFixture(11)
	hasEdgeG, hasEdgeHubs := hybridFixture(17)
	return []hotpathExperiment{
		{
			name:   "korder/insert/social",
			params: map[string]any{"graph": "barabasi-albert", "n": 5000, "m0": 8, "edges": 2000, "order": "taglist"},
			fn: func(b *testing.B) {
				g := gen.BarabasiAlbert(5000, 8, 3)
				sample := workload.SampleEdges(g, 2000, 5)
				workload.RemoveAll(g, sample)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					gc := g.Clone()
					m := korder.New(gc, korder.Options{OrderKind: order.KindTagList})
					b.StartTimer()
					for _, e := range sample {
						if _, err := m.Insert(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					}
				}
			},
		},
		{
			name:   "korder/churn/steady-state",
			params: map[string]any{"n": 2000, "graph_edges": 8000, "sampled_edges": churnSample, "order": "taglist"},
			fn: func(b *testing.B) {
				g := gen.ErdosRenyi(2000, 8000, 9)
				m := korder.New(g, korder.Options{OrderKind: order.KindTagList})
				sample := workload.SampleEdges(g, churnSample, 7)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := sample[i%len(sample)]
					if g.HasEdge(e.U, e.V) {
						if _, err := m.Remove(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := m.Insert(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					}
				}
			},
		},
		{
			name: "graph/hybrid/addremove",
			params: map[string]any{"graph": "rmat", "n": 4096, "edges": hybridEdges,
				"threshold": graph.IndexThreshold, "hubs": addRemoveHubs},
			fn: func(b *testing.B) {
				g := addRemoveG.Clone()
				sample := workload.SampleEdges(g, 2048, 13)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := sample[i%len(sample)]
					if g.HasEdge(e.U, e.V) {
						if err := g.RemoveEdge(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					} else {
						if err := g.AddEdge(e.U, e.V); err != nil {
							b.Fatal(err)
						}
					}
				}
			},
		},
		{
			name: "graph/hybrid/hasedge",
			params: map[string]any{"graph": "rmat", "n": 4096, "edges": hybridEdges,
				"threshold": graph.IndexThreshold, "hubs": hasEdgeHubs},
			fn: func(b *testing.B) {
				g := hasEdgeG
				sample := workload.SampleEdges(g, 2048, 19)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := sample[i%len(sample)]
					_ = g.HasEdge(e.U, e.V)
					_ = g.HasEdge(e.U, (e.V+1)%4096)
				}
			},
		},
		{
			name:   "order/arena/migrate",
			params: map[string]any{"n": 1024, "lists": 2, "order": "taglist"},
			fn:     benchArenaMigrate,
		},
	}
}

// hybridEdges is the edge count of the graph/hybrid/* rows' fixture.
const hybridEdges = 16384

// hybridFixture returns the graph/hybrid/* rows' graph and its number of
// vertices past graph.IndexThreshold. It is an RMAT graph on 4,096 vertices
// with mean degree 8, whose skew puts 13 vertices past the threshold at
// seeds 11 and 17, so about a quarter of the sampled edges touch a
// map-indexed hub and the rest are scanned.
func hybridFixture(seed uint64) (*graph.Undirected, int) {
	g := gen.RMAT(12, hybridEdges, 0.57, 0.19, 0.19, seed)
	hubs := 0
	for v := range g.NumVertices() {
		if g.Degree(v) > graph.IndexThreshold {
			hubs++
		}
	}
	return g, hubs
}

// benchArenaMigrate mirrors order's BenchmarkOrderMigrate: level migration
// between two lists on one shared arena, where each vertex keeps its own
// node, through the korder maintainer's own structures.
func benchArenaMigrate(b *testing.B) {
	g := graph.New(1024)
	for v := 1; v < 1024; v++ {
		if err := g.AddEdge(0, v); err != nil {
			b.Fatal(err)
		}
	}
	m := korder.New(g, korder.Options{OrderKind: order.KindTagList})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i%1023 + 1
		// Removing and re-adding a spoke moves the leaf across levels.
		if _, err := m.Remove(0, v); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Insert(0, v); err != nil {
			b.Fatal(err)
		}
	}
}

// Hotpath runs the hot-path micro-experiments, prints a table to cfg.Out,
// and returns the structured results.
func Hotpath(cfg Config) []Result {
	cfg = cfg.withDefaults()
	exps := hotpathExperiments(cfg)
	results := make([]Result, 0, len(exps))
	PrintResultHeader(cfg.Out)
	for _, e := range exps {
		results = append(results, RunMeasured(cfg.Out, e.name, e.params, e.fn))
	}
	return results
}
