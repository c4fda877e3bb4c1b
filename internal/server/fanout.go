package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
)

// FanoutStats reports one FanoutLoad run.
type FanoutStats struct {
	// Changes is the number of core-change events the engine reported in
	// its BatchInfo.
	Changes uint64
	// Delivered is the total number of events handed to subscribers across
	// all cursors (watchers x Changes when nothing was dropped); Dropped is
	// the summed lagged count.
	Delivered uint64
	Dropped   uint64
	// Encoded is the ring's encode counter: one per event, covering both
	// framings, independent of the watcher count.
	Encoded uint64
	// Bytes is the summed length of the pre-encoded SSE frames subscribers
	// read (the work a real handler would write to its socket).
	Bytes uint64
	// Elapsed covers first Apply to last subscriber exit.
	Elapsed time.Duration
}

// FanoutLoad measures watch fan-out through the shared broadcast ring with
// in-process subscribers: watchers cursors drain the ring concurrently while
// the engine emits changes core-change events (a growing star: each new
// spoke changes one vertex's core).
//
// Subscribers are in-process cursors rather than real /v1/watch connections
// deliberately: N TCP watchers cost 2N file descriptors (client + server
// end), which caps a 10k-watcher run well above typical nofile limits, and
// the per-connection HTTP write path would measure socket throughput, not
// fan-out. The cursors run the same poll loop the watch handler runs, so
// the measured cost is the ring's.
func FanoutLoad(watchers, changes, ringSize int) (FanoutStats, error) {
	if watchers < 1 || changes < 1 || ringSize < 1 {
		return FanoutStats{}, fmt.Errorf("server: FanoutLoad wants positive watchers, changes and ringSize")
	}
	eng := kcore.NewEngine()
	ring := newBroadcastRing(eng, ringSize)

	var delivered, dropped, bytes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < watchers; w++ {
		cursor := ring.subscribe(ringSize, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lagged uint64
			scratch := make([]ringEvent, 0, 64)
			for {
				events, drops, wait, closed := cursor.poll(scratch)
				if closed {
					dropped.Add(lagged)
					return
				}
				if len(events) > 0 {
					var n uint64
					for _, ev := range events {
						n += uint64(ev.split)
					}
					bytes.Add(n)
					delivered.Add(uint64(len(events)))
					lagged = drops
					continue
				}
				lagged = drops
				<-wait
			}
		}()
	}

	start := time.Now()
	// A growing star: spoke i's core flips 0 -> 1, one change per add (plus
	// one extra for the hub vertex on the first edge). The ring is the
	// engine's change hook, so every event is in it when Apply returns.
	const batch = 100
	var emitted uint64
	for next := 1; next <= changes; next += batch {
		b := kcore.Batch{}
		for v := next; v <= changes && v < next+batch; v++ {
			b = append(b, kcore.Add(0, v))
		}
		info, err := eng.Apply(b)
		if err != nil {
			ring.close()
			wg.Wait()
			return FanoutStats{}, fmt.Errorf("server: fanout apply: %w", err)
		}
		for _, u := range info.Updates {
			emitted += uint64(len(u.CoreChanged))
		}
	}
	ring.close()
	wg.Wait()
	elapsed := time.Since(start)

	return FanoutStats{
		Changes:   emitted,
		Delivered: delivered.Load(),
		Dropped:   dropped.Load(),
		Encoded:   ring.encoded.Load(),
		Bytes:     bytes.Load(),
		Elapsed:   elapsed,
	}, nil
}
