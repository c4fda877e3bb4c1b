// Command kcore-gen generates the synthetic datasets (the offline analogs
// of the paper's Table I graphs) or parameterized random graphs, writing
// them as edge lists — or, with -snapshot, as kcore-serve durability
// snapshots (the internal/persist binary format), ready to drop into a
// -data-dir so the server boots the graph without re-decomposing it from
// an edge list.
//
// Usage:
//
//	kcore-gen -dataset patents-sim -out patents.txt
//	kcore-gen -model ba -n 10000 -k 8 -seed 3 -out social.txt
//	kcore-gen -model ba -n 10000 -snapshot -out data/snapshot.kcs
//	kcore-gen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"kcore"
	"kcore/internal/datasets"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/persist"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "named dataset analog (see -list)")
		model    = flag.String("model", "", "generator model: er|ba|rmat|grid|community|ws")
		n        = flag.Int("n", 10000, "number of vertices (er/ba/community/ws)")
		m        = flag.Int("m", 40000, "number of edges (er/rmat)")
		k        = flag.Int("k", 8, "attachment degree (ba) / ring neighbors (ws)")
		scale    = flag.Int("scale", 14, "log2 vertex count (rmat)")
		rows     = flag.Int("rows", 100, "grid rows")
		cols     = flag.Int("cols", 100, "grid cols")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		out      = flag.String("out", "", "output file (default stdout)")
		list     = flag.Bool("list", false, "list named datasets and exit")
		stats    = flag.Bool("stats", false, "print a core-structure summary of the generated graph to stderr")
		snapshot = flag.Bool("snapshot", false, "write the kcore-serve durability snapshot format (internal/persist) instead of an edge list; requires -out")
	)
	flag.Parse()

	if *list {
		for _, d := range datasets.All() {
			fmt.Printf("%-18s %-12s analog of %s\n", d.Name, d.Kind, d.Paper)
		}
		return
	}

	var g *graph.Undirected
	switch {
	case *dataset != "":
		d, err := datasets.ByName(*dataset)
		if err != nil {
			fatal(err)
		}
		g = d.Build()
	case *model != "":
		switch *model {
		case "er":
			g = gen.ErdosRenyi(*n, *m, *seed)
		case "ba":
			g = gen.BarabasiAlbert(*n, *k, *seed)
		case "rmat":
			g = gen.RMAT(*scale, *m, 0.57, 0.19, 0.19, *seed)
		case "grid":
			g = gen.Grid(*rows, *cols, 0.62, 0.05, *seed)
		case "community":
			g = gen.Community(*n, 8, 0.7, *n/2, *seed)
		case "ws":
			g = gen.WattsStrogatz(*n, *k, 0.1, *seed)
		default:
			fatal(fmt.Errorf("unknown model %q", *model))
		}
	default:
		fatal(fmt.Errorf("one of -dataset or -model is required (or -list)"))
	}

	if *snapshot {
		// The snapshot format stores verified cores and the maintained
		// k-order, so build the engine (one O(m + n) decomposition) and let
		// persist.Save write it atomically.
		if *out == "" {
			fatal(fmt.Errorf("-snapshot requires -out (atomic temp-file + rename needs a real path)"))
		}
		e, err := kcore.FromEdges(g.Edges())
		if err != nil {
			fatal(err)
		}
		if err := persist.Save(*out, e); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote snapshot n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	} else {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := graph.WriteEdgeList(w, g); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	}
	if *stats {
		cores, err := kcore.Decompose(g.Edges())
		if err != nil {
			fatal(err)
		}
		deg := 0
		for _, c := range cores {
			if c > deg {
				deg = c
			}
		}
		inDeepest := 0
		for _, c := range cores {
			if c == deg {
				inDeepest++
			}
		}
		fmt.Fprintf(os.Stderr, "degeneracy=%d |%d-core|=%d avg_deg=%.2f\n",
			deg, deg, inDeepest, g.AvgDegree())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcore-gen:", err)
	os.Exit(1)
}
