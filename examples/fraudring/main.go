// Fraudring demonstrates dense-subgraph alerting on a streaming transaction
// graph. Collusive fraud rings (accounts that transact heavily among
// themselves) form unusually dense subgraphs; a vertex whose core number
// jumps far above the population norm is a standard anomaly signal, and
// dynamic core maintenance makes the check O(small neighborhood) per
// transaction instead of O(graph) — exactly the use case that motivates
// core maintenance over recomputation.
//
// The demo streams legitimate transactions (sparse, random), injects two
// fraud rings as batches, and drives alerting entirely from a change
// subscription filtered at the core threshold — the alerting path never
// polls Cores(). Chargebacks (batched edge removals) clear the alerts.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"kcore"
)

const (
	accounts      = 3000
	legitTxns     = 9000
	ringSize      = 12
	coreThreshold = 6
)

func main() {
	e := kcore.NewEngine()
	rng := rand.New(rand.NewPCG(3, 17))
	alerted := map[int]bool{}

	// The subscription delivers only changes touching the threshold level
	// or above: crossings in both directions, nothing else.
	events, cancel := e.Subscribe(kcore.WithMinCore(coreThreshold), kcore.WithBuffer(4096))
	defer cancel()
	pump := func(label string) {
		for {
			select {
			case ev := <-events:
				if ev.NewCore >= coreThreshold && !alerted[ev.Vertex] {
					alerted[ev.Vertex] = true
					fmt.Printf("ALERT  account %-4d reached core %d (%s, update %d)\n",
						ev.Vertex, ev.NewCore, label, ev.Seq)
				}
				if ev.NewCore < coreThreshold && alerted[ev.Vertex] {
					delete(alerted, ev.Vertex)
					fmt.Printf("CLEAR  account %-4d back to core %d (%s, update %d)\n",
						ev.Vertex, ev.NewCore, label, ev.Seq)
				}
			default:
				return
			}
		}
	}

	process := func(u, v int, label string) {
		if u == v || e.HasEdge(u, v) {
			return
		}
		if _, err := e.AddEdge(u, v); err != nil {
			log.Fatal(err)
		}
		pump(label)
	}

	fmt.Printf("streaming %d legitimate transactions...\n", legitTxns)
	for i := 0; i < legitTxns; i++ {
		process(rng.IntN(accounts), rng.IntN(accounts), "legit")
	}
	fmt.Printf("background degeneracy after legit traffic: %d (threshold %d)\n\n",
		e.Degeneracy(), coreThreshold)

	// Inject ring 1: a clique of colluding accounts, as one batch.
	ring1 := pickAccounts(rng, ringSize, accounts)
	fmt.Printf("injecting fraud ring 1: %v\n", ring1)
	var ringEdges [][2]int
	for i := 0; i < len(ring1); i++ {
		for j := i + 1; j < len(ring1); j++ {
			if !e.HasEdge(ring1[i], ring1[j]) {
				ringEdges = append(ringEdges, [2]int{ring1[i], ring1[j]})
			}
		}
	}
	if _, err := e.AddEdges(ringEdges); err != nil {
		log.Fatal(err)
	}
	pump("ring1")

	// Inject ring 2: a denser-than-normal but not complete ring.
	ring2 := pickAccounts(rng, ringSize+6, accounts)
	fmt.Printf("\ninjecting fraud ring 2 (partial): %v\n", ring2)
	var ring2Edges [][2]int
	for i := 0; i < len(ring2); i++ {
		for j := i + 1; j < len(ring2); j++ {
			if rng.Float64() < 0.6 && !e.HasEdge(ring2[i], ring2[j]) {
				ring2Edges = append(ring2Edges, [2]int{ring2[i], ring2[j]})
			}
		}
	}
	if _, err := e.AddEdges(ring2Edges); err != nil {
		log.Fatal(err)
	}
	pump("ring2")

	fmt.Printf("\naccounts alerted: %d; degeneracy now %d\n", len(alerted), e.Degeneracy())

	// Chargebacks: ring 1's transactions are reversed in one batch; its
	// members' core numbers collapse back to the background level and the
	// subscription delivers the falls.
	fmt.Println("\ncharging back ring 1 transactions...")
	var chargebacks [][2]int
	for _, ed := range ringEdges {
		if e.HasEdge(ed[0], ed[1]) {
			chargebacks = append(chargebacks, ed)
		}
	}
	if _, err := e.RemoveEdges(chargebacks); err != nil {
		log.Fatal(err)
	}
	pump("chargeback")

	cleared := 0
	for _, a := range ring1 {
		if e.Core(a) < coreThreshold {
			cleared++
		}
	}
	fmt.Printf("ring 1 members below threshold after chargebacks: %d/%d (still alerted overall: %d)\n",
		cleared, len(ring1), len(alerted))
	if err := e.Validate(); err != nil {
		log.Fatalf("maintained state diverged: %v", err)
	}
	fmt.Println("maintained cores verified against full recomputation: OK")
}

func pickAccounts(rng *rand.Rand, k, n int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		a := rng.IntN(n)
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
