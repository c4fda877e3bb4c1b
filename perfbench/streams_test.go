package main

import (
	"fmt"
	"testing"

	"kcore"
	"kcore/internal/datasets"
	"kcore/internal/graph"
)

// apply replays units [from, to) of s through Apply.
func apply(t *testing.T, eng *kcore.Engine, s stream, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := eng.Apply(s.at(i)); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
	}
}

func edgeSet(eng *kcore.Engine) map[[2]int]bool {
	set := map[[2]int]bool{}
	for _, e := range eng.Edges() {
		set[e] = true
	}
	return set
}

func sameEdges(t *testing.T, eng *kcore.Engine, want map[[2]int]bool, what string) {
	t.Helper()
	got := edgeSet(eng)
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("%s: edge %v missing", what, e)
		}
	}
}

// TestStreamsReplay replays every workload's generated streams sequentially
// through Apply: the lead, a full cycle (which must return to the state after
// the lead), and the start of the next cycle. The paper's edge stream has a
// period of over a million single updates, so two of its cycles are replayed
// here and its wrap-around is covered by TestEdgeCyclesWrap.
func TestStreamsReplay(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			ds, err := datasets.ByName(def.dataset)
			if err != nil {
				t.Fatal(err)
			}
			g := ds.Build()
			streams := def.streams(g, 7)
			for w, s := range streams {
				eng, err := kcore.FromEdges(g.Edges(), kcore.WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				apply(t, eng, s, 0, s.lead)
				led := edgeSet(eng)
				cycle := s.period
				if def.name == "paper-edge-stream" {
					cycle = 2 * 20000
				}
				apply(t, eng, s, s.lead, s.lead+cycle)
				sameEdges(t, eng, led, fmt.Sprintf("writer %d after one cycle", w))
				apply(t, eng, s, s.lead+cycle, s.lead+cycle+min(cycle, 50))
			}
			if len(streams) > 1 {
				interleave(t, g, streams)
			}
		})
	}
}

// interleave replays a multi-writer workload's streams on one engine in two
// different interleavings, round-robin and one writer after another: per-
// writer edge partitions make any interleaving valid.
func interleave(t *testing.T, g *graph.Undirected, streams []stream) {
	for _, roundRobin := range []bool{true, false} {
		eng, err := kcore.FromEdges(g.Edges(), kcore.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range streams {
			n = max(n, s.lead+s.period+1)
		}
		if roundRobin {
			for i := 0; i < n; i++ {
				for _, s := range streams {
					apply(t, eng, s, i, i+1)
				}
			}
		} else {
			for _, s := range streams {
				apply(t, eng, s, 0, n)
			}
		}
		if err := eng.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEdgeCyclesWrap replays a full period of the paper's edge stream, and
// the first cycle of the next, on a small graph: every cycle, including the
// wrap back to the first window, restores the base graph.
func TestEdgeCyclesWrap(t *testing.T) {
	ds, err := datasets.ByName("facebook-tiny")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Build()
	s := edgeCycles(g, 500, 3)
	eng, err := kcore.FromEdges(g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	base := edgeSet(eng)
	for c := 0; c <= s.period/1000; c++ {
		apply(t, eng, s, c*1000, (c+1)*1000)
		sameEdges(t, eng, base, fmt.Sprintf("after cycle %d", c))
	}
}

// TestPartitionDisjoint checks that no edge appears in two partitions.
func TestPartitionDisjoint(t *testing.T) {
	ds, err := datasets.ByName("facebook-tiny")
	if err != nil {
		t.Fatal(err)
	}
	owner := map[[2]int]int{}
	for p, ops := range partitionOps(churn(ds.Build(), 5000, 1), 2) {
		for _, op := range ops {
			k := [2]int{min(op.E.U, op.E.V), max(op.E.U, op.E.V)}
			if q, ok := owner[k]; ok && q != p {
				t.Fatalf("edge %v in partitions %d and %d", k, q, p)
			}
			owner[k] = p
		}
	}
}
