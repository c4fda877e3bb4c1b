package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/server"
	"kcore/internal/server/wire"
)

// serveBench drives an in-process stack that mirrors kcore-serve -data-dir
// with default flags: a persist store, a replication publisher without
// followers, and a server with default options on a loopback listener. Load
// comes over HTTP from one connection per driving goroutine.
type serveBench struct {
	edges   [][2]int
	n       int
	policy  persist.SyncPolicy
	binary  bool
	reader  bool
	seed    uint64
	scratch string
	streams []stream   // one per writer connection
	bodies  [][][]byte // encoded request body of every stream unit
	next    []int
	runs    int

	dir    string
	store  *persist.Store
	pub    *replicate.Publisher
	srv    *server.Server
	served chan error
	url    string

	probeMu sync.Mutex
	probes  map[uint64]time.Time // flush-final seq -> apply probe time

	lastAck   uint64
	unmatched int // traced writes whose flush probe was not found within them
	ing       [2]wire.IngestStats
	ps        [2]persist.Stats
}

func newServeBench(cfg config, edges [][2]int, n int, policy persist.SyncPolicy, binary, reader bool, streams []stream) *serveBench {
	s := &serveBench{edges: edges, n: n, policy: policy, binary: binary, reader: reader,
		seed: cfg.seed, scratch: cfg.scratch, streams: streams}
	for _, st := range streams {
		bodies := make([][]byte, st.lead+st.period)
		for k := range bodies {
			bodies[k] = encodeBody(st.unit(k), binary)
		}
		s.bodies = append(s.bodies, bodies)
	}
	return s
}

// encodeBody builds a POST /v1/batch body the way the Go client does.
func encodeBody(b kcore.Batch, binary bool) []byte {
	if binary {
		frame, err := persist.AppendBatchFrame(nil, b)
		if err != nil {
			panic(err) // generated batches are always encodable
		}
		return frame
	}
	req := wire.BatchRequest{Updates: make([]wire.Update, len(b))}
	for i, up := range b {
		op := wire.OpAdd
		if up.Op == kcore.OpRemove {
			op = wire.OpRemove
		}
		req.Updates[i] = wire.Update{Op: op, U: up.U, V: up.V}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

func (s *serveBench) contentType() string {
	if s.binary {
		return wire.ContentTypeBatch
	}
	return wire.ContentTypeJSON
}

// setup opens a fresh data dir (initial snapshot included), attaches the
// publisher, and serves until the listener answers a health check.
func (s *serveBench) setup() error {
	s.runs++
	s.dir = filepath.Join(s.scratch, fmt.Sprintf("data-%d", s.runs))
	st, err := persist.Open(s.dir, persist.Options{Sync: s.policy,
		Init: func() (*kcore.Engine, error) { return kcore.FromEdges(s.edges) }})
	if err != nil {
		return err
	}
	s.store = st
	s.pub = replicate.NewPublisher(st.Engine(), replicate.PublisherOptions{
		HistoryBytes: 4 << 20, WALPath: filepath.Join(s.dir, persist.WALFile)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(st.Engine(), server.Options{Persist: st, Publisher: s.pub})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(l) }()
	s.url = "http://" + l.Addr().String()
	s.next = make([]int, len(s.streams))
	s.lastAck = st.Engine().Seq()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(s.url + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// stop shuts the server down gracefully and closes the publisher and store,
// whichever of them setup got to.
func (s *serveBench) stop() error {
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = s.srv.Shutdown(ctx)
		if serr := <-s.served; err == nil {
			err = serr
		}
	}
	if s.pub != nil {
		s.pub.Close()
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	s.srv, s.pub, s.store = nil, nil, nil
	return err
}

func (s *serveBench) teardown() {
	_ = s.stop() // a failed stop is already reported by check, or is moot
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

func (s *serveBench) engine() *kcore.Engine { return s.store.Engine() }

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func (s *serveBench) drive(ph *phase) error {
	eng := s.engine()
	if ph.trace {
		s.probes = map[uint64]time.Time{}
		eng.SetApplyProbe(func(n int) {
			t := time.Now()
			seq := eng.Seq() + uint64(n) // the epoch still holds the pre-flush seq
			s.probeMu.Lock()
			s.probes[seq] = t
			s.probeMu.Unlock()
		})
		defer eng.SetApplyProbe(nil)
		if err := s.snapStats(0); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(s.streams)+1)
	for w := range s.streams {
		r := &rec{}
		ph.recs = append(ph.recs, r)
		wg.Add(1)
		go func(w int, r *rec) {
			defer wg.Done()
			errs[w] = s.write(ph, w, r)
		}(w, r)
	}
	if s.reader {
		r := &rec{}
		ph.recs = append(ph.recs, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[len(s.streams)] = s.read(ph, r)
		}()
	}
	wg.Wait()
	for _, r := range ph.recs {
		s.lastAck = max(s.lastAck, r.maxSeq)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if ph.trace {
		s.splitSpans(ph)
		return s.snapStats(1)
	}
	return nil
}

// write is one writer connection: a closed loop of POST /v1/batch.
func (s *serveBench) write(ph *phase, w int, r *rec) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ct := s.contentType()
	rng := rand.New(rand.NewPCG(s.seed, uint64(w)))
	eng := s.engine()
	for {
		i := s.next[w]
		t0 := time.Now()
		ack, err := post(hc, s.url+"/v1/batch", ct, s.bodies[w][s.streams[w].pos(i)])
		t1 := time.Now()
		if err != nil {
			r.failed++
			return fmt.Errorf("writer %d unit %d: %w", w, i, err)
		}
		s.next[w]++
		r.writes = append(r.writes, sample{t1.Sub(ph.start), t1.Sub(t0)})
		r.updates += int64(ack.Applied)
		r.visited += int64(ack.Visited)
		r.maxSeq = max(r.maxSeq, ack.Seq)
		if ph.trace {
			r.reqs = append(r.reqs, reqSpan{send: t0, ack: t1, seq: ack.Seq})
			r.log.add(s.streams[w].at(i), ack.Seq, replayCap/len(s.streams))
			if len(r.acks) < ackSample {
				r.acks = append(r.acks, ack)
			}
			if w == 0 {
				r.coreReadT += timeCoreReads(eng, rng, s.n)
				r.coreReads += coreReadBatch
			}
		}
		if !t1.Before(ph.deadline) && s.streams[w].led(s.next[w]) {
			return nil
		}
	}
}

// post sends one batch body and decodes its acknowledgement; any non-200
// answer is an error.
func post(hc *http.Client, url, ct string, body []byte) (wire.BatchResponse, error) {
	var ack wire.BatchResponse
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", ct)
	resp, err := hc.Do(req)
	if err != nil {
		return ack, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ack, err
	}
	if resp.StatusCode != http.StatusOK {
		return ack, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if ct == wire.ContentTypeBatch {
		a, err := wire.DecodeBatchAck(data)
		if err != nil {
			return ack, err
		}
		return *a, nil
	}
	err = json.Unmarshal(data, &ack)
	return ack, err
}

// read is the reader connection: a closed loop of GET /v1/core/{v} over
// uniform vertices.
func (s *serveBench) read(ph *phase, r *rec) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c, err := server.NewClient(s.url, hc)
	if err != nil {
		return err
	}
	c.Retry = nil
	rng := rand.New(rand.NewPCG(s.seed, 99))
	ctx := context.Background()
	for {
		v := rng.IntN(s.n)
		t0 := time.Now()
		resp, err := c.Core(ctx, v)
		t1 := time.Now()
		if err == nil && resp.Vertex != v {
			err = fmt.Errorf("asked vertex %d, answered %d", v, resp.Vertex)
		}
		if err != nil {
			r.failed++
			return fmt.Errorf("read: %w", err)
		}
		r.reads = append(r.reads, sample{t1.Sub(ph.start), t1.Sub(t0)})
		if !t1.Before(ph.deadline) {
			return nil
		}
	}
}

// splitSpans splits each traced write at the apply probe of the flush that
// carried it: the flush's final seq is the write's acknowledged seq.
func (s *serveBench) splitSpans(ph *phase) {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	for _, r := range ph.recs {
		for _, q := range r.reqs {
			t, ok := s.probes[q.seq]
			if !ok || t.Before(q.send) || t.After(q.ack) {
				s.unmatched++
				continue
			}
			r.pre = append(r.pre, t.Sub(q.send))
			r.post = append(r.post, q.ack.Sub(t))
		}
	}
}

// snapStats records the ingest and durability counters at a phase edge.
func (s *serveBench) snapStats(i int) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c, err := server.NewClient(s.url, hc)
	if err != nil {
		return err
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		return err
	}
	s.ing[i], s.ps[i] = st.Ingest, s.store.Stats()
	return nil
}

func (s *serveBench) layers(ph *phase, m metrics) error {
	ing0, ing1 := s.ing[0], s.ing[1]
	flushes := float64(ing1.Flushes - ing0.Flushes)
	requests := float64(ing1.Requests - ing0.Requests)
	m.set("server.requests_per_flush", "count", ratio(requests, flushes))
	m.set("server.grouped_fraction", "ratio", ratio(float64(ing1.Grouped-ing0.Grouped), requests))
	m.set("server.rejected", "count", float64(ing1.Rejected-ing0.Rejected))
	ps0, ps1 := s.ps[0], s.ps[1]
	m.set("persist.wal_bytes_per_update", "B", ratio(float64(ps1.WALBytes-ps0.WALBytes), float64(ph.updates())))
	m.set("persist.syncs_per_flush", "count", ratio(float64(ps1.Syncs-ps0.Syncs), flushes))
	m.set("persist.compactions", "count", float64(ps1.Compactions-ps0.Compactions))
	ms, err := timeSnapshot(s.store)
	m.set("persist.snapshot_ms", "ms", ms)
	return err
}

// check is the durability check: it takes the served cores, shuts the
// stack down, reopens the data dir, and requires the recovered engine to
// sit at the last acknowledged seq with the served cores, which must also
// match a from-scratch decomposition.
func (s *serveBench) check() error {
	if s.unmatched > 0 {
		return fmt.Errorf("%d traced writes found no apply probe inside their span", s.unmatched)
	}
	hc := newHTTPClient()
	c, err := server.NewClient(s.url, hc)
	if err != nil {
		return err
	}
	c.Binary = true
	served, err := c.Cores(context.Background())
	hc.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("served cores: %w", err)
	}
	last := s.lastAck
	if err := s.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st, err := persist.Open(s.dir, persist.Options{Sync: s.policy})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	eng := st.Engine()
	switch {
	case served.Seq != last:
		return fmt.Errorf("served cores at seq %d, last ack at seq %d", served.Seq, last)
	case eng.Seq() != last:
		return fmt.Errorf("recovered seq %d, last ack at seq %d", eng.Seq(), last)
	}
	if err := eng.Validate(); err != nil {
		return err
	}
	cores := eng.Cores()
	for v := 0; v < max(len(cores), len(served.Cores)); v++ {
		if at(cores, v) != at(served.Cores, v) {
			return fmt.Errorf("vertex %d: recovered core %d, served %d", v, at(cores, v), at(served.Cores, v))
		}
	}
	return sameCores(cores, eng.Edges())
}
