// Socialstream simulates the paper's motivating scenario: an evolving
// online social network where friendships arrive (and occasionally
// dissolve) continuously, while an analyst tracks engagement cohorts — the
// k-core a user belongs to is a standard engagement/influence proxy.
//
// The demo grows a preferential-attachment network in streaming fashion
// through the dynamic engine (no recomputation). Each new user's
// friendships land as one Apply batch, a change subscription follows one
// early adopter's core number push-style (no polling), and cohort sizes
// are reported from consistent views.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"kcore"
)

const (
	users       = 4000
	meetPerUser = 6
	churnEvery  = 5 // one unfriend per this many new users
	reportEvery = 1000
	trackedUser = 10 // an early adopter
)

func main() {
	e := kcore.NewEngine()
	rng := rand.New(rand.NewPCG(7, 99))

	// Follow the early adopter's engagement push-style: every core-number
	// transition arrives as an event instead of a per-step Core() poll.
	events, cancel := e.Subscribe(kcore.WithBuffer(4096))
	defer cancel()
	transitions := 0
	drainTracked := func() {
		for {
			select {
			case ev := <-events:
				if ev.Vertex == trackedUser {
					transitions++
					fmt.Printf("  event: user %d core %d -> %d (update %d)\n",
						ev.Vertex, ev.OldCore, ev.NewCore, ev.Seq)
				}
			default:
				return
			}
		}
	}

	// endpoints doubles as a degree-proportional sampler: picking a random
	// entry picks a user proportionally to its current friend count.
	var endpoints []int
	var friendships [][2]int
	recordBatch := func(batch kcore.Batch) {
		if len(batch) == 0 {
			return
		}
		if _, err := e.Apply(batch); err != nil {
			log.Fatal(err)
		}
		for _, up := range batch {
			endpoints = append(endpoints, up.U, up.V)
			friendships = append(friendships, [2]int{up.U, up.V})
		}
	}

	// Seed clique of early adopters.
	var seed kcore.Batch
	for u := 0; u < meetPerUser+1; u++ {
		for v := u + 1; v < meetPerUser+1; v++ {
			seed = append(seed, kcore.Add(u, v))
		}
	}
	recordBatch(seed)

	for newUser := meetPerUser + 1; newUser < users; newUser++ {
		// The new user befriends existing users, preferring popular ones.
		// All friendships of one user arrive as one batch: one lock
		// acquisition and one aggregated result per user.
		chosen := map[int]bool{}
		var batch kcore.Batch
		for len(batch) < meetPerUser {
			target := endpoints[rng.IntN(len(endpoints))]
			if target == newUser || chosen[target] || e.HasEdge(newUser, target) {
				continue
			}
			chosen[target] = true
			batch = append(batch, kcore.Add(newUser, target))
		}
		recordBatch(batch)

		// Occasional churn: an old friendship dissolves.
		if newUser%churnEvery == 0 && len(friendships) > 10 {
			i := rng.IntN(len(friendships))
			f := friendships[i]
			if e.HasEdge(f[0], f[1]) {
				if _, err := e.RemoveEdge(f[0], f[1]); err != nil {
					log.Fatal(err)
				}
			}
			friendships[i] = friendships[len(friendships)-1]
			friendships = friendships[:len(friendships)-1]
		}
		drainTracked()
		if newUser%reportEvery == 0 {
			report(e, newUser)
		}
	}
	drainTracked()
	report(e, users)

	fmt.Println("\n--- cohort summary at end of stream ---")
	v := e.View() // one snapshot for all cohort queries
	deg := v.Degeneracy()
	for k := deg; k >= deg-2 && k > 0; k-- {
		fmt.Printf("%2d-core (most engaged cohort at k=%d): %d users\n",
			k, k, len(v.KCore(k)))
	}
	fmt.Printf("\nearly adopter %d: final core number %d (degeneracy %d), %d tracked transitions\n",
		trackedUser, v.Core(trackedUser), deg, transitions)
	if err := e.Validate(); err != nil {
		log.Fatalf("maintained state diverged from recomputation: %v", err)
	}
	fmt.Println("maintained cores verified against full recomputation: OK")
}

func report(e *kcore.Engine, usersSoFar int) {
	v := e.View()
	fmt.Printf("users=%-5d friendships=%-6d degeneracy=%-3d core(user %d)=%d\n",
		usersSoFar, v.NumEdges(), v.Degeneracy(), trackedUser, v.Core(trackedUser))
}
