package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"kcore"
	"kcore/internal/server/wire"
)

// replayCap bounds the updates a traced phase logs for the offline replays,
// across all its writers.
const replayCap = 150000

// ackSample bounds how many acknowledgements a traced phase keeps for the
// wire-codec timings.
const ackSample = 2048

// rec is what one driving goroutine records during a phase. Only the
// goroutine that owns it writes it; phases merge recs after joining.
type rec struct {
	writes  []sample // one per write call: call to return, or send to ack
	reads   []sample // one per HTTP read
	updates int64    // committed edge updates
	visited int64    // summed BatchInfo.Total.Visited / BatchResponse.Visited
	failed  int64
	maxSeq  uint64 // highest acknowledged seq (served writes)

	// Split by operation for single-edge streams.
	insertN, removeN int64
	insertT, removeT time.Duration

	// Traced phases only.
	pre, post []time.Duration // write split at the engine's apply probe
	reqs      []reqSpan       // HTTP writes, split once the probes are joined
	coreReadT time.Duration   // direct Engine.CoreSeq reads between writes
	coreReads int64
	log       commitLog
	acks      []wire.BatchResponse
}

// sample is one timed call: its duration and when it ended, relative to the
// phase start.
type sample struct{ end, d time.Duration }

// reqSpan is one HTTP write, correlated with its flush's apply probe by seq.
type reqSpan struct {
	send, ack time.Time
	seq       uint64
}

// commitLog holds the write units a phase committed, in issue order, with
// the engine seq each was acknowledged at (group-final for served writes).
type commitLog struct {
	updates []kcore.Update
	ends    []int
	seqs    []uint64
}

// add logs one unit, unless the log already holds limit updates.
func (l *commitLog) add(b kcore.Batch, seq uint64, limit int) {
	if len(l.updates) >= limit {
		return
	}
	l.updates = append(l.updates, b...)
	l.ends = append(l.ends, len(l.updates))
	l.seqs = append(l.seqs, seq)
}

func (l *commitLog) len() int { return len(l.ends) }

func (l *commitLog) unit(i int) kcore.Batch {
	lo := 0
	if i > 0 {
		lo = l.ends[i-1]
	}
	return l.updates[lo:l.ends[i]]
}

// phase is one timed stretch of load.
type phase struct {
	trace    bool
	start    time.Time
	deadline time.Time
	elapsed  time.Duration
	recs     []*rec
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	exec0    kcore.ExecStats
	exec1    kcore.ExecStats
}

func (ph *phase) updates() (n int64) {
	for _, r := range ph.recs {
		n += r.updates
	}
	return n
}

// rate is the phase's committed updates per second.
func (ph *phase) rate() float64 { return float64(ph.updates()) / ph.elapsed.Seconds() }

// merged concatenates one series across the phase's recs.
func merged[T any](ph *phase, get func(*rec) []T) []T {
	var out []T
	for _, r := range ph.recs {
		out = append(out, get(r)...)
	}
	return out
}

// chunkSamples is the least number of samples a chunk of a latency series
// holds, so that its p99 has twenty samples beyond it.
const chunkSamples = 2000

// quantiles returns the q-quantiles of the samples in microseconds: the
// median, over up to ten chunks of at least chunkSamples consecutive
// samples (by end time), of each chunk's nearest-rank quantile. This keeps
// a burst of outside load from setting the result.
func quantiles(samples []sample, qs ...float64) []float64 {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	chunks := min(max(len(s)/chunkSamples, 1), 10)
	out := make([]float64, len(qs))
	if len(s) == 0 {
		return out
	}
	per := make([][]float64, len(qs))
	for c := 0; c < chunks; c++ {
		part := s[c*len(s)/chunks : (c+1)*len(s)/chunks]
		ds := make([]time.Duration, len(part))
		for i, x := range part {
			ds[i] = x.d
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		for i, q := range qs {
			k := int(math.Ceil(q*float64(len(ds)))) - 1
			per[i] = append(per[i], us(ds[max(k, 0)]))
		}
	}
	for i := range qs {
		out[i] = median(per[i])
	}
	return out
}

// meanUS returns the mean of ds in microseconds (0 when empty).
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
