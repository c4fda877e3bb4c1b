package korder

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/order"
)

// TestScratchEpochWrap runs one churn stream through two maintainers. A
// short way in, the twin's scratch epoch is set just below the 32-bit wrap,
// so after a few updates it wraps and reuses the epochs its records were
// stamped with at the start of the stream. The graph is sparse, so an
// update touches few of its vertices and many records still carry an early
// stamp when the wrapped epoch reaches it; unless the wrap clears every
// stamp, their stale flags and aux read as current. After every update both
// maintainers must pass CheckInvariants and agree on Order and Cores.
func TestScratchEpochWrap(t *testing.T) {
	const n, steps, wrapAt = 200, 1000, 150
	for _, k := range []order.Kind{order.KindTreap, order.KindTagList} {
		rng := rand.New(rand.NewPCG(23, uint64(k)))
		g := graph.New(n)
		for g.NumEdges() < 3*n {
			if u, v := rng.IntN(n), rng.IntN(n); u != v && !g.HasEdge(u, v) {
				mustAddRaw(t, g, u, v)
			}
		}
		opts := Options{OrderKind: k, Seed: 3}
		base, twin := New(g, opts), New(g.Clone(), opts)
		for step := 0; step < steps; step++ {
			if step == wrapAt {
				twin.epoch = math.MaxUint32 - 3
			}
			u, v := rng.IntN(n), rng.IntN(n)
			if u == v {
				continue
			}
			for _, m := range []*Maintainer{base, twin} {
				var err error
				if m.Graph().HasEdge(u, v) {
					_, err = m.Remove(u, v)
				} else {
					_, err = m.Insert(u, v)
				}
				if err != nil {
					t.Fatalf("%v step %d (%d,%d): %v", k, step, u, v, err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("%v step %d (%d,%d), epoch %d: %v", k, step, u, v, m.epoch, err)
				}
			}
			if !slices.Equal(base.Order(), twin.Order()) || !slices.Equal(base.Cores(), twin.Cores()) {
				t.Fatalf("%v step %d: twin diverged after its epoch wrap (epoch %d)", k, step, twin.epoch)
			}
		}
		if twin.epoch >= base.epoch {
			t.Fatalf("%v: twin epoch %d never wrapped (base %d)", k, twin.epoch, base.epoch)
		}
	}
}
