package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/persist"
	"kcore/internal/server/wire"
)

// phaseLayers sets the per-layer metrics taken during the run: the runtime
// counters of the untraced phase plain, and the spans and counts of the
// traced phase.
func phaseLayers(plain, traced *phase, binary bool, m metrics) {
	upd := float64(plain.updates())
	m.set("runtime.alloc_bytes_per_update", "B", ratio(float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc), upd))
	m.set("runtime.gc_pause_ms", "ms", float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6)

	m.set("trace.untraced_updates_per_s", "1/s", plain.rate())
	m.set("trace.updates_per_s", "1/s", traced.rate())
	m.set("trace.overhead_fraction", "ratio", 1-traced.rate()/plain.rate())

	m.set("server.pre_engine_us", "us", meanUS(merged(traced, func(r *rec) []time.Duration { return r.pre })))
	m.set("server.post_engine_us", "us", meanUS(merged(traced, func(r *rec) []time.Duration { return r.post })))

	e0, e1 := traced.exec0, traced.exec1
	seq, rep, live, rec := e1.Sequential-e0.Sequential, e1.Replayed-e0.Replayed, e1.Live-e0.Live, e1.Recomputed-e0.Recomputed
	total := float64(seq + rep + live + rec)
	m.set("kcore.exec_sequential_fraction", "ratio", ratio(float64(seq), total))
	m.set("kcore.planner_commit_ratio", "ratio", ratio(float64(rep), float64(rep+live)))
	m.set("kcore.recomputed_fraction", "ratio", ratio(float64(rec), total))

	var readT time.Duration
	var reads, visited int64
	var logs []*commitLog
	var acks []wire.BatchResponse
	for _, r := range traced.recs {
		readT += r.coreReadT
		reads += r.coreReads
		visited += r.visited
		logs = append(logs, &r.log)
		acks = append(acks, r.acks...)
	}
	m.set("kcore.core_read_us", "us", ratio(us(readT), float64(reads)))
	m.set("korder.visited_per_update", "count", ratio(float64(visited), float64(traced.updates())))
	wireLayers(logs, acks, binary, m)
}

// wireLayers times the wire codecs per batch on the bodies of the traced
// write units (at most ackSample of them) and on their acknowledgements, in
// the workload's own protocol for the acks.
func wireLayers(logs []*commitLog, acks []wire.BatchResponse, binary bool, m metrics) {
	var jsonT, binT time.Duration
	var n int
	scratch := make([]kcore.Update, 0, 512)
	for _, l := range logs {
		for i := 0; i < l.len() && n < ackSample; i, n = i+1, n+1 {
			b := l.unit(i)
			jb, fb := encodeBody(b, false), encodeBody(b, true)
			t0 := time.Now()
			var req wire.BatchRequest
			err := json.NewDecoder(bytes.NewReader(jb)).Decode(&req)
			t1 := time.Now()
			ups, ferr := persist.DecodeBatchFrame(fb, scratch)
			t2 := time.Now()
			if err != nil || ferr != nil || len(req.Updates) != len(b) || len(ups) != len(b) {
				panic(fmt.Sprintf("wire round trip of a generated batch failed: %v %v", err, ferr))
			}
			scratch = ups[:0]
			jsonT, binT = jsonT+t1.Sub(t0), binT+t2.Sub(t1)
		}
	}
	m.set("wire.json_decode_us", "us", ratio(us(jsonT), float64(n)))
	m.set("wire.binary_decode_us", "us", ratio(us(binT), float64(n)))

	var ackT time.Duration
	var buf bytes.Buffer
	var frame []byte
	for i := range acks {
		t0 := time.Now()
		if binary {
			frame = wire.AppendBatchAck(frame[:0], &acks[i])
		} else {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(&acks[i]) // a BatchResponse always encodes
		}
		ackT += time.Since(t0)
	}
	m.set("wire.ack_encode_us", "us", ratio(us(ackT), float64(len(acks))))
}

// replayLayers replays the traced phase's committed writes offline, from
// the graph the phase started on: once through a fresh default Engine, with
// the apply probe splitting validation from execution, and once one update
// at a time through a bare korder.Maintainer with the engine's default
// options (the paper's OrderInsert/OrderRemoval). Served writes replay as
// the flush groups the coalescer committed them in.
func replayLayers(start [][2]int, traced *phase, m metrics) error {
	var logs []*commitLog
	for _, r := range traced.recs {
		logs = append(logs, &r.log)
	}
	flushes := flushGroups(logs)
	var updates int
	for _, b := range flushes {
		updates += len(b)
	}

	eng, err := kcore.FromEdges(start)
	if err != nil {
		return err
	}
	var probeAt time.Time
	eng.SetApplyProbe(func(int) { probeAt = time.Now() })
	var validateT, executeT time.Duration
	for _, b := range flushes {
		t0 := time.Now()
		if _, err := eng.Apply(b); err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
		t1 := time.Now()
		validateT += probeAt.Sub(t0)
		executeT += t1.Sub(probeAt)
	}
	eng = nil
	m.set("kcore.validate_us", "us", ratio(us(validateT), float64(len(flushes))))
	m.set("kcore.execute_us", "us", ratio(us(executeT), float64(len(flushes))))

	g := &graph.Undirected{}
	for _, e := range start {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	mt := korder.New(g, korder.Options{Seed: 1}) // the engine's default heuristic, order and seed
	var insT, remT time.Duration
	for _, b := range flushes {
		for _, up := range b {
			t0 := time.Now()
			if up.Op == kcore.OpAdd {
				_, err = mt.Insert(up.U, up.V)
				insT += time.Since(t0)
			} else {
				_, err = mt.Remove(up.U, up.V)
				remT += time.Since(t0)
			}
			if err != nil {
				return fmt.Errorf("korder replay: %w", err)
			}
		}
	}
	st := mt.Stats()
	m.set("korder.insert_us", "us", ratio(us(insT), float64(st.Inserts)))
	m.set("korder.remove_us", "us", ratio(us(remT), float64(st.Removes)))
	m.set("korder.visited_per_insert", "count", ratio(float64(st.VisitedInsert), float64(st.Inserts)))
	m.set("korder.changed_per_insert", "count", ratio(float64(st.ChangedInsert), float64(st.Inserts)))
	m.set("korder.changed_per_remove", "count", ratio(float64(st.ChangedRemove), float64(st.Removes)))
	m.set("kcore.overhead_us_per_update", "us", ratio(us(validateT+executeT-insT-remT), float64(updates)))
	return nil
}

// flushGroups merges the writers' commit logs by acknowledged seq. Writes
// acknowledged at the same seq were committed by one flush; they come from
// different writers, whose edges are disjoint, so their order within the
// flush does not matter.
func flushGroups(logs []*commitLog) []kcore.Batch {
	type unit struct {
		seq uint64
		b   kcore.Batch
	}
	var units []unit
	for _, l := range logs {
		for i := 0; i < l.len(); i++ {
			units = append(units, unit{l.seqs[i], l.unit(i)})
		}
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].seq < units[j].seq })
	var out []kcore.Batch
	for i, u := range units {
		if i > 0 && u.seq == units[i-1].seq {
			out[len(out)-1] = append(out[len(out)-1], u.b...)
			continue
		}
		out = append(out, append(kcore.Batch(nil), u.b...))
	}
	return out
}
