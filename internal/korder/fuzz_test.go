package korder

import (
	"slices"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/order"
)

// FuzzMaintainerAgainstOracle decodes the fuzz input as a stream of edge
// toggles over a small vertex set (toggle = insert if absent, remove if
// present), runs it through one maintainer per order structure, validates
// each complete maintained state against recomputation after the stream,
// and requires both structures to end with the same k-order and cores. Run
// with `go test -fuzz=Fuzz` for extended differential fuzzing; the seed
// corpus keeps it meaningful as a plain test.
func FuzzMaintainerAgainstOracle(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x30, 0x01, 0x12})
	f.Add([]byte{0x01, 0x02, 0x03, 0x12, 0x13, 0x23}) // K4 build-up
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x55, 0xAA, 0x77, 0x11, 0x22, 0x33, 0x44})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 12
		kinds := []order.Kind{order.KindTreap, order.KindTagList}
		var ms []*Maintainer
		for _, k := range kinds {
			ms = append(ms, New(graph.New(n), Options{OrderKind: k, Seed: 17}))
		}
		for i, b := range data {
			if i > 300 {
				break
			}
			u := int(b>>4) % n
			v := int(b&0xF) % n
			if u == v {
				continue
			}
			for _, m := range ms {
				var err error
				if m.Graph().HasEdge(u, v) {
					_, err = m.Remove(u, v)
				} else {
					_, err = m.Insert(u, v)
				}
				if err != nil {
					t.Fatalf("%v op %d (%d,%d): %v", m.opts.OrderKind, i, u, v, err)
				}
			}
		}
		for _, m := range ms {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("%v: invariants after %d ops: %v", m.opts.OrderKind, len(data), err)
			}
		}
		if !slices.Equal(ms[0].Order(), ms[1].Order()) || !slices.Equal(ms[0].Cores(), ms[1].Cores()) {
			t.Fatalf("order structures diverge after %d ops:\n treap order %v cores %v\n  tag  order %v cores %v",
				len(data), ms[0].Order(), ms[0].Cores(), ms[1].Order(), ms[1].Cores())
		}
	})
}
