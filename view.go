package kcore

// View is an immutable, internally consistent snapshot of the engine's
// maintained state: core numbers, degeneracy, and graph size, all captured
// at the same update sequence number. A View answers any number of queries
// from the same state no matter how the engine moves on, so read-heavy
// callers take one View per decision instead of re-reading per query.
//
// A View is the engine's epoch snapshot (see epoch.go) wrapped in a stable
// API: capturing one is a single atomic pointer load — O(1), no locking, no
// copying — and it never changes after creation. It is safe for concurrent
// use by multiple goroutines and stays valid indefinitely no matter how the
// engine is mutated (or even unloaded) afterwards: nothing it returns
// aliases engine scratch.
type View struct{ ep *epoch }

// View captures a consistent snapshot of the current state: one atomic
// epoch load — O(1), lock-free. Engine.Index captures the full maintained
// state instead.
func (e *Engine) View() *View { return &View{ep: e.loadEpoch()} }

// Seq is the engine update sequence number at which the snapshot was taken.
func (v *View) Seq() uint64 { return v.ep.seq }

// NumVertices reports the snapshot's vertex count (max vertex id + 1).
func (v *View) NumVertices() int { return v.ep.vertices }

// NumEdges reports the snapshot's edge count.
func (v *View) NumEdges() int { return v.ep.edges }

// Degeneracy returns the snapshot's maximum core number.
func (v *View) Degeneracy() int { return v.ep.maxCore }

// Core returns the snapshot core number of x (0 for unknown vertices).
func (v *View) Core(x int) int { return v.ep.core(x) }

// Cores returns a copy of the snapshot's core numbers, indexed by vertex.
func (v *View) Cores() []int { return v.ep.coresCopy() }

// KCore returns the vertices of the snapshot's k-core (core number >= k).
func (v *View) KCore(k int) []int {
	var out []int
	v.ep.forEach(func(x, c int) {
		if c >= k {
			out = append(out, x)
		}
	})
	return out
}
