// Community demonstrates core-based community search — the application
// behind reference [11] of the paper — on an evolving collaboration
// network. Communities are connected k-core components: every member
// collaborates with at least k others inside the community. As new
// collaborations stream in (each research group's collaborations arrive as
// one batch), the dynamic engine keeps core numbers current, and community
// queries are answered on demand.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sort"

	"kcore"
)

const (
	groups     = 12 // research groups (dense collaboration pockets)
	groupSize  = 9
	crossEdges = 30 // cross-group collaborations
)

func main() {
	e := kcore.NewEngine()
	rng := rand.New(rand.NewPCG(11, 5))
	n := groups * groupSize

	// Stream within-group collaborations (dense: ~85% of pairs), one batch
	// per group.
	for g := 0; g < groups; g++ {
		base := g * groupSize
		var batch kcore.Batch
		for i := 0; i < groupSize; i++ {
			for j := i + 1; j < groupSize; j++ {
				if rng.Float64() < 0.85 {
					batch = append(batch, kcore.Add(base+i, base+j))
				}
			}
		}
		if _, err := e.Apply(batch); err != nil {
			log.Fatal(err)
		}
	}
	// Sparse cross-group collaborations.
	for added := 0; added < crossEdges; {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || u/groupSize == v/groupSize || e.HasEdge(u, v) {
			continue
		}
		if _, err := e.AddEdge(u, v); err != nil {
			log.Fatal(err)
		}
		added++
	}

	// The summary lines read one consistent snapshot; the component and
	// community queries below have no View equivalent and hit the live
	// engine under its read lock.
	view := e.View()
	fmt.Printf("collaboration network: %d researchers, %d collaborations, degeneracy %d\n\n",
		view.NumVertices(), view.NumEdges(), view.Degeneracy())

	// Find the tightest communities: components of the deepest cores.
	for k := view.Degeneracy(); k >= view.Degeneracy()-1 && k > 0; k-- {
		comps := e.CoreComponents(k)
		sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
		fmt.Printf("%d-core communities: %d\n", k, len(comps))
		for i, c := range comps {
			if i >= 3 {
				fmt.Printf("  ... and %d more\n", len(comps)-3)
				break
			}
			fmt.Printf("  community of %d researchers (sample: %v)\n", len(c), c[:min(5, len(c))])
		}
	}

	// Community search for a specific researcher, at decreasing cohesion.
	probe := 4
	fmt.Printf("\ncommunity search for researcher %d (core %d):\n", probe, view.Core(probe))
	for k := view.Core(probe); k >= 1; k -= 2 {
		comm := e.Community(probe, k)
		fmt.Printf("  k=%d: community of %d researchers\n", k, len(comm))
	}

	// A new researcher joins group 0 with many collaborations: the
	// community deepens incrementally (one batched vertex insertion).
	newcomer, _, err := e.AddVertexWithEdges([]int{0, 1, 2, 3, 4, 5, 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnewcomer %d joined group 0 with 7 collaborations: core %d, community size %d\n",
		newcomer, e.Core(newcomer), len(e.Community(newcomer, e.Core(newcomer))))

	if err := e.Validate(); err != nil {
		log.Fatalf("maintained state diverged: %v", err)
	}
	fmt.Println("maintained cores verified against full recomputation: OK")
}
