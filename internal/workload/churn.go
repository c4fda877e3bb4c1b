package workload

import (
	"math"
	"math/rand/v2"

	"kcore/internal/graph"
)

// ChurnOptions configures Churn.
type ChurnOptions struct {
	// AddFraction is the probability that an op is an insertion; zero or
	// negative selects the default 0.5. A pure-removal stream is therefore
	// not expressible — nor would it be stable: insertions are forced
	// whenever the present-edge set drains empty. Removals are drawn
	// uniformly from the then-present edges, so the stream is valid by
	// construction.
	AddFraction float64
	// Skew in [0, 1) concentrates endpoint selection on a hot subset of
	// vertices: 0 is uniform; as skew approaches 1, insertions increasingly
	// target the same few (randomly chosen) hot vertices, so consecutive
	// updates land in overlapping hub neighborhoods.
	Skew float64
	// Seed drives the stream deterministically.
	Seed uint64
}

// Churn generates a mixed insert/remove stream of ops updates that is valid
// against g when applied in order: every removal targets a then-present
// edge, every insertion a then-absent non-loop pair. g itself is not
// mutated. Removals may target g's original edges, so replaying the stream
// exercises removals on the seeded graph, not just take-backs of the
// stream's own insertions.
func Churn(g *graph.Undirected, ops int, opt ChurnOptions) []Op {
	if opt.AddFraction <= 0 {
		opt.AddFraction = 0.5
	}
	if opt.Skew < 0 {
		opt.Skew = 0
	}
	if opt.Skew >= 1 {
		opt.Skew = 0.999
	}
	rng := rand.New(rand.NewPCG(opt.Seed, opt.Seed^0x9e3779b97f4a7c15))
	n := g.NumVertices()
	if n < 2 || ops <= 0 {
		return nil
	}

	// Hot-vertex selection: rank r is drawn with density concentrated near
	// 0 (r = floor(n * u^e), e = 1/(1-skew) >= 1), and ranks are mapped to
	// vertex ids through a random permutation so the hot set is scattered
	// across the id space rather than always 0..k.
	perm := rng.Perm(n)
	exp := 1.0 / (1.0 - opt.Skew)
	pick := func() int {
		r := int(math.Pow(rng.Float64(), exp) * float64(n))
		if r >= n {
			r = n - 1
		}
		return perm[r]
	}

	// Present-edge bookkeeping: slice for uniform removal sampling, index
	// map for O(1) membership and deletion.
	type key [2]int
	norm := func(u, v int) key {
		if u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	var present []Edge
	pos := make(map[key]int, g.NumEdges()+ops)
	g.ForEachEdge(func(u, v int) {
		pos[norm(u, v)] = len(present)
		present = append(present, Edge{U: u, V: v})
	})

	out := make([]Op, 0, ops)
	for len(out) < ops {
		if rng.Float64() < opt.AddFraction || len(present) == 0 {
			// Insertion: skewed endpoints, retried past loops and present
			// edges. The retry cap guards against a saturated hot set; the
			// uniform fallback always finds a non-edge in sparse graphs.
			var u, v int
			found := false
			for try := 0; try < 32; try++ {
				u, v = pick(), pick()
				if u != v {
					if _, ok := pos[norm(u, v)]; !ok {
						found = true
						break
					}
				}
			}
			for !found {
				u, v = rng.IntN(n), rng.IntN(n)
				if u != v {
					if _, ok := pos[norm(u, v)]; !ok {
						found = true
					}
				}
			}
			pos[norm(u, v)] = len(present)
			present = append(present, Edge{U: u, V: v})
			out = append(out, Op{Insert: true, E: Edge{U: u, V: v}})
		} else {
			i := rng.IntN(len(present))
			victim := present[i]
			last := len(present) - 1
			present[i] = present[last]
			pos[norm(present[i].U, present[i].V)] = i
			present = present[:last]
			delete(pos, norm(victim.U, victim.V))
			out = append(out, Op{Insert: false, E: victim})
		}
	}
	return out
}
