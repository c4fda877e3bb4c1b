package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/server/wire"
)

// coreReadBatch is how many direct CoreSeq reads a traced writer times after
// each write.
const coreReadBatch = 8

// libBench drives the library Engine from one goroutine.
type libBench struct {
	edges   [][2]int
	stream  stream
	single  bool // one AddEdge/RemoveEdge per unit instead of Apply
	seed    uint64
	scratch string

	eng     *kcore.Engine
	next    int       // next stream unit
	probeAt time.Time // set by the apply probe, on the driving goroutine
}

func (l *libBench) setup() error {
	eng, err := kcore.FromEdges(l.edges)
	if err != nil {
		return err
	}
	l.eng, l.next = eng, 0
	return nil
}

func (l *libBench) teardown()             { l.eng = nil }
func (l *libBench) engine() *kcore.Engine { return l.eng }

func (l *libBench) drive(ph *phase) error {
	r := &rec{}
	ph.recs = []*rec{r}
	if ph.trace {
		l.eng.SetApplyProbe(func(int) { l.probeAt = time.Now() })
		defer l.eng.SetApplyProbe(nil)
	}
	rng := rand.New(rand.NewPCG(l.seed, 1))
	n := l.eng.NumVertices()
	for {
		b := l.stream.at(l.next)
		var info kcore.BatchInfo
		var err error
		t0 := time.Now()
		if l.single {
			var ui kcore.UpdateInfo
			if b[0].Op == kcore.OpAdd {
				ui, err = l.eng.AddEdge(b[0].U, b[0].V)
			} else {
				ui, err = l.eng.RemoveEdge(b[0].U, b[0].V)
			}
			info = kcore.BatchInfo{Applied: 1, Total: ui}
		} else {
			info, err = l.eng.Apply(b)
		}
		t1 := time.Now()
		if err != nil {
			r.failed++
			return fmt.Errorf("write unit %d: %w", l.next, err)
		}
		l.next++
		d := t1.Sub(t0)
		r.writes = append(r.writes, sample{t1.Sub(ph.start), d})
		r.updates += int64(info.Applied)
		r.visited += int64(info.Total.Visited)
		if l.single && b[0].Op == kcore.OpAdd {
			r.insertN, r.insertT = r.insertN+1, r.insertT+d
		} else if l.single {
			r.removeN, r.removeT = r.removeN+1, r.removeT+d
		}
		if ph.trace {
			r.pre = append(r.pre, l.probeAt.Sub(t0))
			r.post = append(r.post, t1.Sub(l.probeAt))
			seq := l.eng.Seq()
			r.log.add(b, seq, replayCap)
			if len(r.acks) < ackSample {
				r.acks = append(r.acks, wire.BatchResponse{Seq: seq, Applied: info.Applied,
					Coalesced: info.Coalesced, Recomputed: info.Recomputed, FlushedWith: 1,
					CoreChanged: info.Total.CoreChanged, Visited: info.Total.Visited})
			}
			r.coreReadT += timeCoreReads(l.eng, rng, n)
			r.coreReads += coreReadBatch
		}
		if !t1.Before(ph.deadline) && l.stream.led(l.next) {
			return nil
		}
	}
}

// timeCoreReads times coreReadBatch direct point reads of uniform vertices.
func timeCoreReads(eng *kcore.Engine, rng *rand.Rand, n int) time.Duration {
	var vs [coreReadBatch]int
	for i := range vs {
		vs[i] = rng.IntN(n)
	}
	t0 := time.Now()
	for _, v := range vs {
		eng.CoreSeq(v)
	}
	return time.Since(t0)
}

// layers reports the serving and durability layers, which the library
// workloads do not pass through: every Apply is its own flush, nothing is
// grouped, rejected or logged. The snapshot time is taken on this
// workload's final graph through a throw-away store.
func (l *libBench) layers(ph *phase, m metrics) error {
	m.set("server.requests_per_flush", "count", 1)
	m.set("server.grouped_fraction", "ratio", 0)
	m.set("server.rejected", "count", 0)
	m.set("persist.wal_bytes_per_update", "B", 0)
	m.set("persist.syncs_per_flush", "count", 0)
	m.set("persist.compactions", "count", 0)
	dir := filepath.Join(l.scratch, "snapshot")
	st, err := persist.Open(dir, persist.Options{Init: func() (*kcore.Engine, error) { return l.eng, nil }})
	if err != nil {
		return fmt.Errorf("open snapshot store: %w", err)
	}
	ms, err := timeSnapshot(st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	m.set("persist.snapshot_ms", "ms", ms)
	return err
}

// check validates the engine and compares its cores with a from-scratch
// decomposition of its edges.
func (l *libBench) check() error {
	if err := l.eng.Validate(); err != nil {
		return err
	}
	return sameCores(l.eng.Cores(), l.eng.Edges())
}

// sameCores compares maintained cores with kcore.Decompose(edges); vertices
// past either slice's end have core 0.
func sameCores(cores []int, edges [][2]int) error {
	want, err := kcore.Decompose(edges)
	if err != nil {
		return err
	}
	for v := 0; v < max(len(cores), len(want)); v++ {
		if at(cores, v) != at(want, v) {
			return fmt.Errorf("vertex %d: core %d, recomputed %d", v, at(cores, v), at(want, v))
		}
	}
	return nil
}

func at(xs []int, i int) int {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// timeSnapshot times one Store.Snapshot in milliseconds.
func timeSnapshot(st *persist.Store) (float64, error) {
	t0 := time.Now()
	_, err := st.Snapshot()
	return float64(time.Since(t0)) / float64(time.Millisecond), err
}
