package bench

import (
	"kcore/internal/datasets"
	"kcore/internal/decomp"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/stats"
	"kcore/internal/workload"
)

// Fig1Row holds one dataset's Fig. 1 bars: the distribution of the number
// of vertices visited per insertion, traversal (|V'|) vs order-based (|V+|),
// over the paper's buckets (<=3, <=10, <=100, <=1000, >1000).
type Fig1Row struct {
	Dataset   string
	Traversal []float64
	Order     []float64
}

// Fig1 reproduces Figure 1.
func Fig1(cfg Config) []Fig1Row {
	cfg = cfg.withDefaults()
	var rows []Fig1Row
	tb := &stats.Table{Header: append([]string{"dataset", "algorithm"}, stats.BucketLabels...)}
	for _, d := range cfg.Datasets {
		p := prepare(cfg, d)
		// Traversal (h=2) pass.
		gT := p.g.Clone()
		mT := newTrav(gT, 2)
		var visT []int
		for _, e := range p.edges {
			res, err := mT.Insert(e.U, e.V)
			if err != nil {
				panic(err)
			}
			visT = append(visT, res.Visited)
		}
		// Order-based pass.
		gO := p.g.Clone()
		mO := newOrder(gO, cfg.Seed)
		var visO []int
		for _, e := range p.edges {
			res, err := mO.Insert(e.U, e.V)
			if err != nil {
				panic(err)
			}
			visO = append(visO, res.Visited)
		}
		row := Fig1Row{Dataset: d.Name, Traversal: stats.Bucketize(visT), Order: stats.Bucketize(visO)}
		rows = append(rows, row)
		tb.AddRow(append([]string{d.Name, "traversal"}, fmtProps(row.Traversal)...)...)
		tb.AddRow(append([]string{"", "order-based"}, fmtProps(row.Order)...)...)
	}
	fprintln(cfg.Out, "Fig. 1: distribution of the number of vertices visited per insertion")
	fprintln(cfg.Out, tb.String())
	return rows
}

func fmtProps(ps []float64) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = stats.F(p)
	}
	return out
}

// Fig2Row holds one dataset's Fig. 2 ratios: sum(visited)/sum(|V*|) per
// algorithm over the insertion workload.
type Fig2Row struct {
	Dataset        string
	TraversalRatio float64
	OrderRatio     float64
}

// Fig2 reproduces Figure 2.
func Fig2(cfg Config) []Fig2Row {
	cfg = cfg.withDefaults()
	var rows []Fig2Row
	tb := &stats.Table{Header: []string{"dataset", "traversal |V'|/|V*|", "order |V+|/|V*|"}}
	for _, d := range cfg.Datasets {
		p := prepare(cfg, d)
		var rT, rO stats.Ratio
		gT := p.g.Clone()
		mT := newTrav(gT, 2)
		for _, e := range p.edges {
			res, err := mT.Insert(e.U, e.V)
			if err != nil {
				panic(err)
			}
			rT.Add(res.Visited, len(res.Changed))
		}
		gO := p.g.Clone()
		mO := newOrder(gO, cfg.Seed)
		for _, e := range p.edges {
			res, err := mO.Insert(e.U, e.V)
			if err != nil {
				panic(err)
			}
			rO.Add(res.Visited, len(res.Changed))
		}
		row := Fig2Row{Dataset: d.Name, TraversalRatio: rT.Value(), OrderRatio: rO.Value()}
		rows = append(rows, row)
		tb.AddRow(d.Name, stats.F(row.TraversalRatio), stats.F(row.OrderRatio))
	}
	fprintln(cfg.Out, "Fig. 2: ratio of vertices visited to vertices updated (insertions)")
	fprintln(cfg.Out, tb.String())
	return rows
}

// Fig5Thresholds are the x-axis points of the cumulative distribution.
var Fig5Thresholds = []int{1, 10, 100, 1000, 10000}

// Fig5Row holds the cumulative size distribution of pc, sc, and oc for one
// dataset: entry [i] is the fraction of vertices whose region size is
// <= Fig5Thresholds[i].
type Fig5Row struct {
	Dataset string
	PC      []float64
	SC      []float64
	OC      []float64
}

// Fig5 reproduces Figure 5 (pure-core / subcore exactly; order-core on a
// vertex sample, see DESIGN.md §7). By default it runs on the two datasets
// the paper plots (patents-sim, orkut-sim).
func Fig5(cfg Config) []Fig5Row {
	cfg = cfg.withDefaults()
	ds := cfg.Datasets
	if len(ds) > 2 {
		ds = pickByName(cfg, "patents-sim", "orkut-sim")
	}
	var rows []Fig5Row
	tb := &stats.Table{Header: []string{"dataset", "region", "<=1", "<=10", "<=100", "<=1000", "<=10000"}}
	for _, d := range ds {
		g := d.Build()
		dec := decomp.KOrder(g, decomp.SmallDegPlusFirst, cfg.Seed)
		pc := decomp.PureCoreSizes(g, dec.Core, dec.MCD)
		sc := decomp.SubcoreSizes(g, dec.Core)
		oc := decomp.SampleOrderCoreSizes(g, dec, 2000, cfg.Seed)
		row := Fig5Row{
			Dataset: d.Name,
			PC:      stats.CDF(pc, Fig5Thresholds),
			SC:      stats.CDF(sc, Fig5Thresholds),
			OC:      stats.CDF(oc, Fig5Thresholds),
		}
		rows = append(rows, row)
		tb.AddRow(append([]string{d.Name, "pc"}, fmtProps(row.PC)...)...)
		tb.AddRow(append([]string{"", "sc"}, fmtProps(row.SC)...)...)
		tb.AddRow(append([]string{"", "oc"}, fmtProps(row.OC)...)...)
	}
	fprintln(cfg.Out, "Fig. 5: cumulative size distribution of pc, sc, oc")
	fprintln(cfg.Out, tb.String())
	return rows
}

// pickByName filters cfg.Datasets to the named ones (first two present),
// falling back to the first entries when none match.
func pickByName(cfg Config, names ...string) []datasets.Dataset {
	var out []datasets.Dataset
	for _, d := range cfg.Datasets {
		for _, n := range names {
			if d.Name == n {
				out = append(out, d)
			}
		}
	}
	if len(out) == 0 {
		k := len(names)
		if k > len(cfg.Datasets) {
			k = len(cfg.Datasets)
		}
		out = cfg.Datasets[:k]
	}
	return out
}

// largestThree returns the paper's three scalability datasets when present
// (Patents, Orkut, LiveJournal analogs), else the first three configured.
func largestThree(cfg Config) []datasets.Dataset {
	out := pickByName(cfg, "patents-sim", "orkut-sim", "livejournal-sim")
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}

// Fig9Row holds one dataset's heuristic comparison: |V+|/|V*| for the
// small/large/random deg+ first initial orders.
type Fig9Row struct {
	Dataset string
	Small   float64
	Large   float64
	Random  float64
}

// Fig9 reproduces Figure 9: the same insertion workload executed on
// maintainers whose initial k-order was generated with each heuristic.
func Fig9(cfg Config) []Fig9Row {
	cfg = cfg.withDefaults()
	var rows []Fig9Row
	tb := &stats.Table{Header: []string{"dataset", "small deg+", "large deg+", "random deg+"}}
	for _, d := range cfg.Datasets {
		p := prepare(cfg, d)
		vals := make(map[decomp.Heuristic]float64)
		for _, h := range []decomp.Heuristic{decomp.SmallDegPlusFirst, decomp.LargeDegPlusFirst, decomp.RandomDegPlusFirst} {
			g := p.g.Clone()
			m := korder.New(g, korder.Options{Heuristic: h, Seed: cfg.Seed})
			var r stats.Ratio
			for _, e := range p.edges {
				res, err := m.Insert(e.U, e.V)
				if err != nil {
					panic(err)
				}
				r.Add(res.Visited, len(res.Changed))
			}
			vals[h] = r.Value()
		}
		row := Fig9Row{
			Dataset: d.Name,
			Small:   vals[decomp.SmallDegPlusFirst],
			Large:   vals[decomp.LargeDegPlusFirst],
			Random:  vals[decomp.RandomDegPlusFirst],
		}
		rows = append(rows, row)
		tb.AddRow(d.Name, stats.F(row.Small), stats.F(row.Large), stats.F(row.Random))
	}
	fprintln(cfg.Out, "Fig. 9: |V+|/|V*| under the three k-order generation heuristics")
	fprintln(cfg.Out, tb.String())
	return rows
}

// Fig10Thresholds are the core-number CDF x-axis points.
var Fig10Thresholds = []int{1, 10, 100, 1000}

// Fig10Row holds, per dataset, the cumulative distributions of (a) vertex
// core numbers and (b) K = min core over the sampled workload edges.
type Fig10Row struct {
	Dataset  string
	CoreCDF  []float64
	EdgeKCDF []float64
}

// Fig10 reproduces Figures 10a and 10b.
func Fig10(cfg Config) []Fig10Row {
	cfg = cfg.withDefaults()
	var rows []Fig10Row
	tb := &stats.Table{Header: []string{"dataset", "series", "<=1", "<=10", "<=100", "<=1000"}}
	for _, d := range cfg.Datasets {
		g := d.Build()
		core := decomp.Cores(g)
		edges := sampleWorkload(cfg, d, g)
		ks := make([]int, len(edges))
		for i, e := range edges {
			k := core[e.U]
			if core[e.V] < k {
				k = core[e.V]
			}
			ks[i] = k
		}
		row := Fig10Row{
			Dataset:  d.Name,
			CoreCDF:  stats.CDF(core, Fig10Thresholds),
			EdgeKCDF: stats.CDF(ks, Fig10Thresholds),
		}
		rows = append(rows, row)
		tb.AddRow(append([]string{d.Name, "core numbers"}, fmtProps(row.CoreCDF)...)...)
		tb.AddRow(append([]string{"", "edge K"}, fmtProps(row.EdgeKCDF)...)...)
	}
	fprintln(cfg.Out, "Fig. 10: CDF of core numbers (a) and of K over sampled edges (b)")
	fprintln(cfg.Out, tb.String())
	return rows
}

// Fig11Point is one sample-rate measurement of the scalability test.
type Fig11Point struct {
	Rate        float64
	InsertSec   float64
	EdgeRatio   float64 // sampled m / original m (vary-|V| series)
	VertexRatio float64 // touched n / original n (vary-|E| series)
}

// Fig11Row holds one dataset's vary-|V| and vary-|E| series.
type Fig11Row struct {
	Dataset string
	VaryV   []Fig11Point
	VaryE   []Fig11Point
}

// Fig11 reproduces Figure 11 (OrderInsert scalability): subgraphs sampled
// at 20%..100% of vertices / edges, timing the insertion of the sampled
// workload on each.
func Fig11(cfg Config) []Fig11Row {
	cfg = cfg.withDefaults()
	ds := cfg.Datasets
	if len(ds) > 3 {
		ds = largestThree(cfg)
	}
	rates := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var rows []Fig11Row
	tb := &stats.Table{Header: []string{"dataset", "series", "rate", "time(s)", "edge-ratio", "vertex-ratio"}}
	for _, d := range ds {
		base := d.Build()
		row := Fig11Row{Dataset: d.Name}
		for _, rate := range rates {
			sub := workload.VertexSample(base, rate, cfg.Seed)
			pt := timeInsertWorkload(cfg, sub)
			pt.Rate = rate
			pt.EdgeRatio = float64(sub.NumEdges()) / float64(base.NumEdges())
			row.VaryV = append(row.VaryV, pt)
			tb.AddRow(d.Name, "vary|V|", stats.F(rate), stats.FSec(pt.InsertSec), stats.F(pt.EdgeRatio), "")
		}
		for _, rate := range rates {
			sub := workload.EdgeSample(base, rate, cfg.Seed)
			pt := timeInsertWorkload(cfg, sub)
			pt.Rate = rate
			touched := 0
			for v := 0; v < sub.NumVertices(); v++ {
				if sub.Degree(v) > 0 {
					touched++
				}
			}
			pt.VertexRatio = float64(touched) / float64(base.NumVertices())
			row.VaryE = append(row.VaryE, pt)
			tb.AddRow(d.Name, "vary|E|", stats.F(rate), stats.FSec(pt.InsertSec), "", stats.F(pt.VertexRatio))
		}
		rows = append(rows, row)
	}
	fprintln(cfg.Out, "Fig. 11: OrderInsert scalability under vertex/edge sampling")
	fprintln(cfg.Out, tb.String())
	return rows
}

// timeInsertWorkload samples cfg.Edges edges of g, removes them, builds the
// order-based index, and times their one-by-one reinsertion.
func timeInsertWorkload(cfg Config, g *graph.Undirected) Fig11Point {
	edges := workload.SampleEdges(g, cfg.Edges, cfg.Seed+1)
	workload.RemoveAll(g, edges)
	m := newOrder(g, cfg.Seed)
	sec := timeIt(func() {
		for _, e := range edges {
			if _, err := m.Insert(e.U, e.V); err != nil {
				panic(err)
			}
		}
	})
	return Fig11Point{InsertSec: sec}
}

// Fig12Row holds the stability test for one dataset and removal probability:
// per-group accumulated insertion time over sequential edge groups.
type Fig12Row struct {
	Dataset   string
	P         float64
	GroupSec  []float64
	GroupVStr []int // number of vertices updated per group (Fig. 12b)
}

// Fig12 reproduces Figure 12: reinsert a large edge sample group by group
// (with probability P removing a random present edge after each insertion),
// checking that per-group time does not degrade as the maintained order
// ages.
func Fig12(cfg Config) []Fig12Row {
	cfg = cfg.withDefaults()
	ds := cfg.Datasets
	if len(ds) > 3 {
		ds = largestThree(cfg)
	}
	var rows []Fig12Row
	tb := &stats.Table{Header: []string{"dataset", "p", "group", "time(s)", "|V*|"}}
	for _, d := range ds {
		for _, p := range []float64{0, 0.1, 0.2} {
			g := d.Build()
			edges := workload.SampleEdges(g, cfg.Edges*cfg.Groups, cfg.Seed)
			workload.RemoveAll(g, edges)
			m := newOrder(g, cfg.Seed)
			groups := workload.Partition(edges, cfg.Groups)
			row := Fig12Row{Dataset: d.Name, P: p}
			for gi, grp := range groups {
				ops := workload.MixedStream(grp, p, cfg.Seed+uint64(gi))
				changed := 0
				sec := timeIt(func() {
					for _, op := range ops {
						var res korder.UpdateResult
						var err error
						if op.Insert {
							res, err = m.Insert(op.E.U, op.E.V)
						} else {
							res, err = m.Remove(op.E.U, op.E.V)
						}
						if err != nil {
							panic(err)
						}
						changed += len(res.Changed)
					}
				})
				row.GroupSec = append(row.GroupSec, sec)
				row.GroupVStr = append(row.GroupVStr, changed)
				tb.AddRow(d.Name, stats.F(p), stats.I(gi+1), stats.FSec(sec), stats.I(changed))
			}
			rows = append(rows, row)
		}
	}
	fprintln(cfg.Out, "Fig. 12: OrderInsert stability across sequential edge groups")
	fprintln(cfg.Out, tb.String())
	return rows
}
