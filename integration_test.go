package kcore_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"kcore"
)

// TestIntegrationLifecycle exercises the full public workflow end to end:
// load a graph, maintain it through mixed churn, capture its index
// mid-stream, restore, continue beside a reference engine, and answer
// structural queries — validating the maintained state against
// recomputation at every stage.
func TestIntegrationLifecycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 1))

	// Stage 1: build a community-structured graph through the API.
	e := kcore.NewEngine()
	const groups, size = 6, 8
	for g := 0; g < groups; g++ {
		base := g * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < 0.8 {
					if _, err := e.AddEdge(base+i, base+j); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for i := 0; i < 30; i++ {
		u, v := rng.IntN(groups*size), rng.IntN(groups*size)
		if u != v && !e.HasEdge(u, v) {
			if _, err := e.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("stage 1: %v", err)
	}

	// Stage 2: churn, capturing the index halfway.
	var snap *kcore.IndexState
	edges := e.Edges()
	for i, ed := range edges {
		if i%3 == 0 {
			if _, err := e.RemoveEdge(ed[0], ed[1]); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(edges)/2 {
			snap = e.Index()
		}
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("stage 2: %v", err)
	}

	// Stage 3: restore the captured index and replay different updates; the
	// restored engine must stay valid and agree with a fresh engine loaded
	// from the same edge list.
	r, err := kcore.FromIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("restored: %v", err)
	}
	var dump bytes.Buffer
	if err := r.Save(&dump); err != nil {
		t.Fatal(err)
	}
	ref, err := kcore.Load(&dump)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 150; step++ {
		u, v := rng.IntN(groups*size), rng.IntN(groups*size)
		if u == v {
			continue
		}
		if r.HasEdge(u, v) {
			if _, err := r.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := r.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for v := 0; v < groups*size; v++ {
		if r.Core(v) != ref.Core(v) {
			t.Fatalf("core(%d): restored %d vs reference %d", v, r.Core(v), ref.Core(v))
		}
	}

	// Stage 4: structural queries on the final state.
	colors, k := r.GreedyColoring()
	if k > r.Degeneracy()+1 {
		t.Fatalf("coloring used %d colors > degeneracy+1 = %d", k, r.Degeneracy()+1)
	}
	for _, ed := range r.Edges() {
		if colors[ed[0]] == colors[ed[1]] {
			t.Fatalf("improper coloring on edge %v", ed)
		}
	}
	deepest := r.Degeneracy()
	if comps := r.CoreComponents(deepest); len(comps) == 0 {
		t.Fatal("no components at the degeneracy level")
	} else {
		probe := comps[0][0]
		if comm := r.Community(probe, deepest); len(comm) == 0 {
			t.Fatal("empty community for a degeneracy-level vertex")
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("final: %v", err)
	}
}
