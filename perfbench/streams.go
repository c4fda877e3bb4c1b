package main

import (
	"kcore"
	"kcore/internal/graph"
	"kcore/internal/workload"
)

// A stream is the sequence of write units (one batch per write call) a
// driving connection issues: lead units once, then a cycle of period units
// forever. Applied in order from the base graph every unit validates, and
// each full cycle returns to the state after the lead, so a stream stays
// valid however long a run drives it.
type stream struct {
	lead   int
	period int
	unit   func(k int) kcore.Batch // k in [0, lead+period); the result may alias scratch
}

// pos maps the i-th unit of the unbounded stream to its position.
func (s stream) pos(i int) int {
	if i < s.lead {
		return i
	}
	return s.lead + (i-s.lead)%s.period
}

// at returns the i-th unit of the unbounded stream.
func (s stream) at(i int) kcore.Batch { return s.unit(s.pos(i)) }

// led reports whether the first i units include the whole lead.
func (s stream) led(i int) bool { return i >= s.lead }

// edgeCycles is the paper's Sec. VII protocol: remove a uniform sample of
// existing edges one at a time, then insert them back one at a time. Cycle c
// uses the c-th window of one seeded permutation of all edges, so successive
// cycles draw disjoint samples.
func edgeCycles(g *graph.Undirected, sample int, seed uint64) stream {
	all := workload.SampleEdges(g, g.NumEdges(), seed)
	cycles := len(all) / sample
	buf := make(kcore.Batch, 1)
	return stream{period: 2 * sample * cycles, unit: func(i int) kcore.Batch {
		c, j := i/(2*sample), i%(2*sample)
		e := all[c*sample+j%sample]
		if j < sample {
			buf[0] = kcore.Remove(e.U, e.V)
		} else {
			buf[0] = kcore.Add(e.U, e.V)
		}
		return buf
	}}
}

// churnCycles cuts a churn stream (valid against the base graph) into
// batches of size updates. The first lead updates are applied once; the
// rest form the forward pass, which the cycle follows with its inverse: the
// batches in reverse order, each reversed with every update inverted. The
// inverse pass undoes the forward pass exactly, so each cycle returns to the
// state after the lead. The lead keeps the cycle away from the base graph,
// where every pokec-sim vertex shares one core and the first batches cost
// tens of times more than the rest.
func churnCycles(ops []workload.Op, lead, size int) stream {
	lead = min(lead, len(ops))
	leadUnits := batches(ops[:lead], size)
	fwd := batches(ops[lead:], size)
	units := append(leadUnits, fwd...)
	for k := len(fwd) - 1; k >= 0; k-- {
		inv := make(kcore.Batch, len(fwd[k]))
		for j, up := range fwd[k] {
			if up.Op == kcore.OpAdd {
				inv[len(inv)-1-j] = kcore.Remove(up.U, up.V)
			} else {
				inv[len(inv)-1-j] = kcore.Add(up.U, up.V)
			}
		}
		units = append(units, inv)
	}
	return stream{lead: len(leadUnits), period: 2 * len(fwd), unit: func(k int) kcore.Batch { return units[k] }}
}

func batches(ops []workload.Op, size int) []kcore.Batch {
	var out []kcore.Batch
	for lo := 0; lo < len(ops); lo += size {
		b := make(kcore.Batch, 0, size)
		for _, op := range ops[lo:min(lo+size, len(ops))] {
			if op.Insert {
				b = append(b, kcore.Add(op.E.U, op.E.V))
			} else {
				b = append(b, kcore.Remove(op.E.U, op.E.V))
			}
		}
		out = append(out, b)
	}
	return out
}

// partitionOps splits a churn stream by edge into parts sub-streams. Each
// sub-stream keeps the original order of the updates on its edges, and no
// two sub-streams share an edge, so each stays valid under any interleaving
// with the others: an update's validity depends only on its own edge. The
// same holds for the streams churnCycles builds from them.
func partitionOps(ops []workload.Op, parts int) [][]workload.Op {
	out := make([][]workload.Op, parts)
	for _, op := range ops {
		u, v := op.E.U, op.E.V
		if u > v {
			u, v = v, u
		}
		h := (uint64(u)<<32 | uint64(v)) * 0x9e3779b97f4a7c15
		p := int((h >> 32) % uint64(parts))
		out[p] = append(out[p], op)
	}
	return out
}
