// Package bench implements the paper's evaluation harness: one driver per
// table and figure of Section VII (see DESIGN.md §4 for the index). Every
// driver prints a paper-style plain-text table to Config.Out and returns
// its data for programmatic assertions.
//
// Workload sizes default to the paper's counts scaled down 10x (10,000
// sampled edges instead of 100,000) to match the ~20x reduced synthetic
// datasets; both are configurable.
package bench

import (
	"fmt"
	"io"
	"time"

	"kcore/internal/datasets"
	"kcore/internal/decomp"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/traversal"
	"kcore/internal/workload"
)

// Config parameterizes the experiment drivers.
type Config struct {
	// Out receives the rendered tables. Required.
	Out io.Writer
	// Edges is the number of sampled edges per workload (paper: 100,000).
	Edges int
	// Groups is the number of groups in the stability test (paper: 100).
	Groups int
	// Hops lists the traversal variants to run (paper: 2..6).
	Hops []int
	// Seed drives all sampling deterministically.
	Seed uint64
	// Datasets overrides the dataset list (default: datasets.All()).
	Datasets []datasets.Dataset
}

// WithDefaults fills zero fields with the scaled-paper defaults.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero fields with the scaled-paper defaults.
func (c Config) withDefaults() Config {
	if c.Edges == 0 {
		c.Edges = 10000
	}
	if c.Groups == 0 {
		c.Groups = 10
	}
	if len(c.Hops) == 0 {
		c.Hops = []int{2, 3, 4, 5, 6}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Datasets == nil {
		c.Datasets = datasets.All()
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// temporal reports whether the paper treats this dataset's edges as
// time-stamped (latest-edge workload selection).
func temporal(name string) bool {
	switch name {
	case "facebook-sim", "youtube-sim", "dblp-sim":
		return true
	}
	return false
}

// sampleWorkload picks the update workload for a dataset: the latest Edges
// edges for temporal analogs, a uniform sample otherwise (Section VII).
func sampleWorkload(cfg Config, d datasets.Dataset, g *graph.Undirected) []workload.Edge {
	if temporal(d.Name) {
		return workload.LatestEdges(g, cfg.Edges)
	}
	return workload.SampleEdges(g, cfg.Edges, cfg.Seed)
}

// prepared is a dataset with its workload edges removed, ready for a timed
// reinsertion pass.
type prepared struct {
	d     datasets.Dataset
	g     *graph.Undirected
	edges []workload.Edge
}

// prepare builds the dataset graph, samples the workload, and removes the
// sampled edges so drivers can time their (re)insertion.
func prepare(cfg Config, d datasets.Dataset) prepared {
	g := d.Build()
	edges := sampleWorkload(cfg, d, g)
	workload.RemoveAll(g, edges)
	return prepared{d: d, g: g, edges: edges}
}

// timeIt measures fn's wall-clock duration in seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// newOrder builds an order-based maintainer with bench defaults.
func newOrder(g *graph.Undirected, seed uint64) *korder.Maintainer {
	return korder.New(g, korder.Options{Heuristic: decomp.SmallDegPlusFirst, Seed: seed})
}

// newTrav builds a traversal maintainer.
func newTrav(g *graph.Undirected, hops int) *traversal.Maintainer {
	return traversal.New(g, hops)
}

func fprintln(w io.Writer, args ...any) {
	if _, err := fmt.Fprintln(w, args...); err != nil {
		// Output failures (e.g. closed pipe) should not abort experiments.
		_ = err
	}
}
