package kcore_test

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"kcore"
)

// The most common flow: create an engine, stream edges, query cores.
func ExampleNewEngine() {
	e := kcore.NewEngine()
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	for _, ed := range edges {
		if _, err := e.AddEdge(ed[0], ed[1]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(e.Core(0), e.Core(3), e.Degeneracy())
	// Output: 2 1 2
}

// Build from a batch in O(m+n), then maintain incrementally.
func ExampleFromEdges() {
	e, err := kcore.FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		log.Fatal(err)
	}
	info, err := e.RemoveEdge(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(info.CoreChanged), e.Core(2))
	// Output: 3 1
}

// One-shot static decomposition without an engine.
func ExampleDecompose() {
	cores, err := kcore.Decompose([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cores)
	// Output: [2 2 2 1]
}

// Load an edge list in the common "u v" text format.
func ExampleLoad() {
	data := "# a triangle\n0 1\n1 2\n0 2\n"
	e, err := kcore.Load(strings.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(e.KCore(2))
	// Output: [0 1 2]
}

// Vertex updates are sequences of edge updates (Section III of the paper).
func ExampleEngine_AddVertexWithEdges() {
	e, err := kcore.FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		log.Fatal(err)
	}
	v, _, err := e.AddVertexWithEdges([]int{0, 1, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v, e.Core(v)) // the new vertex completes K4
	if _, err := e.RemoveVertex(v); err != nil {
		log.Fatal(err)
	}
	fmt.Println(e.Core(0), e.Degree(v))
	// Output:
	// 3 3
	// 2 0
}

// Mixed insertions and removals apply atomically as one batch: a single
// lock acquisition, pre-validation of the whole batch, and an aggregated
// result with deduplicated core changes.
func ExampleEngine_Apply() {
	e := kcore.NewEngine()
	info, err := e.Apply(kcore.Batch{
		kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2), // triangle
		kcore.Add(2, 3),    // pendant...
		kcore.Remove(2, 3), // ...cancelled again: the pair coalesces away
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(info.Applied, info.Coalesced, len(info.Total.CoreChanged), e.Core(0))
	// Output: 3 2 3 2
}

// A failed batch wraps a sentinel error and leaves the engine untouched.
func ExampleBatchError() {
	e := kcore.NewEngine()
	_, err := e.Apply(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 0)})
	var be *kcore.BatchError
	fmt.Println(errors.Is(err, kcore.ErrDuplicateEdge), errors.As(err, &be) && be.Index == 1, e.NumEdges())
	// Output: true true 0
}

// A View is an immutable consistent snapshot: cheap repeated queries with
// no further locking, unaffected by later updates.
func ExampleEngine_View() {
	e, err := kcore.FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		log.Fatal(err)
	}
	v := e.View()
	if _, err := e.RemoveEdge(0, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Println(v.Core(0), v.Degeneracy(), e.Core(0))
	// Output: 2 2 1
}

// Subscriptions push core changes to streaming consumers.
func ExampleEngine_Subscribe() {
	e := kcore.NewEngine()
	events, cancel := e.Subscribe(kcore.WithBuffer(8))
	defer cancel()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		log.Fatal(err)
	}
	// The triangle-closing update lifts all three vertices from core 1 to 2.
	for i := 0; i < 5; i++ {
		ev := <-events
		fmt.Printf("core(%d) %d->%d\n", ev.Vertex, ev.OldCore, ev.NewCore)
	}
	// Output:
	// core(0) 0->1
	// core(1) 0->1
	// core(2) 0->1
	// core(2) 1->2
	// core(0) 1->2
}
