package replicate

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"kcore"
	"kcore/internal/fault"
	"kcore/internal/persist"
	"kcore/internal/server/wire"
)

// FollowerOptions tunes the follower side. The zero value picks defaults.
type FollowerOptions struct {
	// Engine options of the follower's engine (rebuild thresholds; the
	// seed comes from each shipped snapshot — determinism requires the
	// primary's).
	Engine []kcore.Option
	// Client is the HTTP client for the stream and the seq poll. The
	// default enables TCP keepalives (dead primaries are detected within
	// tens of seconds) and must NOT set Client.Timeout — the stream is
	// long-lived.
	Client *http.Client
	// ReconnectMin/ReconnectMax bound the jittered exponential reconnect
	// backoff. Defaults 100ms / 5s.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// PollInterval paces the GET /v1/healthz poll of the primary that keeps
	// seq_lag honest while the stream is quiet or down. Default 1s.
	PollInterval time.Duration
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 15 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
		}}
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 100 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 5 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = time.Second
	}
	return o
}

// Follower replicates a primary kcore-serve into a local engine: it
// bootstraps from the primary's /v1/replicate stream, applies live frames
// through persist.ApplyRecord, reconnects with resume on stream failure,
// and re-bootstraps from a fresh snapshot when the stream cannot chain onto
// its state. The engine is built once, by StartFollower, and lives as long
// as the follower: every bootstrap installs the shipped state into it with
// kcore.Engine.Restore, so its apply hooks, subscriptions and apply probe
// keep working across re-bootstraps, and its change hooks receive each
// re-bootstrap's diff.
type Follower struct {
	primary string
	opts    FollowerOptions

	engine *kcore.Engine

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu             sync.Mutex
	conn           io.Closer // current stream body (nil while disconnected)
	connected      bool
	forceBoot      bool // next connect must not ask to resume
	lastErr        string
	lastFrame      time.Time
	primarySeq     uint64
	framesApplied  uint64
	updatesApplied uint64
	bootstraps     uint64 // snapshot bootstraps received
	resumes        uint64 // resume connects (no snapshot section)
	reconnects     uint64 // connection attempts after the first success
	gaps           uint64 // chain breaks / corrupt streams forcing re-bootstrap
}

// stream is one established replication connection, bootstrap already
// consumed and its state restored.
type stream struct {
	body io.ReadCloser
	wr   *persist.WALReader
}

// StartFollower connects to the primary (retrying until ctx expires),
// performs the initial bootstrap, and returns a serving follower whose
// background goroutines stream frames and reconnect until Close. ctx bounds
// ONLY the initial connection: pass a deadline to fail fast when the
// primary is down at boot.
func StartFollower(ctx context.Context, primaryURL string, opts FollowerOptions) (*Follower, error) {
	u, err := url.Parse(primaryURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replicate: primary URL %q must be absolute (e.g. http://host:8080)", primaryURL)
	}
	u.Path, u.RawQuery, u.Fragment = "", "", ""
	f := &Follower{primary: u.String(), opts: opts.withDefaults(), engine: kcore.NewEngine(opts.Engine...)}
	f.ctx, f.cancel = context.WithCancel(context.Background())

	bo := f.backoff()
	for {
		st, err := f.connect()
		if err == nil {
			f.wg.Add(2)
			go f.run(st)
			go f.pollLoop()
			return f, nil
		}
		select {
		case <-ctx.Done():
			f.cancel()
			return nil, fmt.Errorf("replicate: bootstrap from %s: %w (last attempt: %v)", f.primary, ctx.Err(), err)
		case <-time.After(bo.Next()):
		}
	}
}

// backoff builds the follower's jittered exponential reconnect envelope.
// Jitter keeps severed followers from reconnecting in lockstep.
func (f *Follower) backoff() fault.Backoff {
	return fault.Backoff{Min: f.opts.ReconnectMin, Max: f.opts.ReconnectMax}
}

// Primary is the primary's base URL.
func (f *Follower) Primary() string { return f.primary }

// Engine is the follower's engine, the same one for the follower's
// lifetime.
func (f *Follower) Engine() *kcore.Engine { return f.engine }

// DropConnection severs the current stream, forcing a reconnect (resume).
// Exposed for tests and operational kicks; a no-op while disconnected.
func (f *Follower) DropConnection() {
	f.mu.Lock()
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Close stops streaming and polling, then closes the client's idle
// connections. The last installed engine remains readable.
func (f *Follower) Close() {
	f.cancel()
	f.DropConnection()
	f.wg.Wait()
	// A poll cancelled mid-dial still dials into the idle pool; left open,
	// that unused connection holds the primary's Shutdown for 5 s.
	f.opts.Client.CloseIdleConnections()
}

// FollowerStats is a point-in-time snapshot of the follower's counters.
type FollowerStats struct {
	Primary    string
	Connected  bool
	AppliedSeq uint64
	PrimarySeq uint64
	// SeqLag is how far the local engine trails the primary's last known
	// seq (via stream frames and the healthz poll). 0 = caught up as far as
	// the follower can know.
	SeqLag         uint64
	LastFrame      time.Time
	FramesApplied  uint64
	UpdatesApplied uint64
	Bootstraps     uint64
	Resumes        uint64
	Reconnects     uint64
	Gaps           uint64
	LastError      string
}

// Stats reports the follower's replication health.
func (f *Follower) Stats() FollowerStats {
	applied := f.Engine().Seq()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{
		Primary:        f.primary,
		Connected:      f.connected,
		AppliedSeq:     applied,
		PrimarySeq:     f.primarySeq,
		LastFrame:      f.lastFrame,
		FramesApplied:  f.framesApplied,
		UpdatesApplied: f.updatesApplied,
		Bootstraps:     f.bootstraps,
		Resumes:        f.resumes,
		Reconnects:     f.reconnects,
		Gaps:           f.gaps,
		LastError:      f.lastErr,
	}
	if f.primarySeq > applied {
		st.SeqLag = f.primarySeq - applied
	}
	return st
}

// connect dials the replication endpoint and consumes the bootstrap,
// restoring a shipped snapshot into the engine. On success the returned
// stream delivers live frames.
func (f *Follower) connect() (*stream, error) {
	target := f.primary + "/v1/replicate"
	f.mu.Lock()
	resume := f.bootstraps > 0 && !f.forceBoot
	f.mu.Unlock()
	if resume {
		target += "?from=" + strconv.FormatUint(f.engine.Seq(), 10)
	}
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replicate: connect %s: %w", target, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeWireError(resp)
	}

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	snap, err := ReadBootstrap(br)
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	switch {
	case snap != nil:
		st, err := persist.DecodeSnapshot(snap)
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("replicate: shipped snapshot: %w", err)
		}
		if err = f.engine.Restore(st); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("replicate: restore shipped snapshot: %w", err)
		}
		f.mu.Lock()
		f.bootstraps++
		f.forceBoot = false
		f.observeSeqLocked(st.Seq)
		f.mu.Unlock()
	case !resume:
		// A resume bootstrap answers only a resume request; for a fresh (or
		// poisoned) follower the primary must ship state.
		resp.Body.Close()
		return nil, fmt.Errorf("%w: bootstrap carried no snapshot", ErrBadStream)
	default:
		f.mu.Lock()
		f.resumes++
		f.mu.Unlock()
	}

	f.mu.Lock()
	f.conn = resp.Body
	f.connected = true
	f.lastErr = ""
	f.mu.Unlock()
	return &stream{body: resp.Body, wr: persist.NewWALReader(br)}, nil
}

// run consumes the live stream and reconnects (with resume) until Close.
func (f *Follower) run(st *stream) {
	defer f.wg.Done()
	for {
		err := f.consume(st)
		st.body.Close()
		f.mu.Lock()
		f.conn = nil
		f.connected = false
		if err != nil {
			f.lastErr = err.Error()
		}
		f.mu.Unlock()
		if f.ctx.Err() != nil {
			return
		}

		// A fresh envelope per outage: a successful stream resets the
		// delay, so a long-lived follower never pays a stale maximum.
		bo := f.backoff()
		for {
			f.mu.Lock()
			f.reconnects++
			f.mu.Unlock()
			next, err := f.connect()
			if err == nil {
				st = next
				break
			}
			f.mu.Lock()
			f.lastErr = err.Error()
			f.mu.Unlock()
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(bo.Next()):
			}
		}
	}
}

// consume applies stream frames until the connection ends or the stream
// cannot be trusted. Any malformation, a frame that does not chain onto
// the engine's seq, or a frame the primary applied but this engine refuses
// (ApplyRecord wraps both in ErrCorruptWAL) poisons the stream: the next
// connect re-bootstraps from a snapshot instead of risking silent
// divergence.
func (f *Follower) consume(st *stream) error {
	for {
		rec, err := st.wr.Next()
		applied := false
		if err == nil {
			applied, err = persist.ApplyRecord(f.engine, rec)
		}
		if err != nil {
			if errors.Is(err, persist.ErrCorruptWAL) || errors.Is(err, ErrBadStream) {
				f.poison()
				return fmt.Errorf("replicate: stream poisoned: %w", err)
			}
			// EOF / cut connection / transport error: reconnect with resume.
			return fmt.Errorf("replicate: stream ended: %w", err)
		}
		if !applied {
			continue // bootstrap overlap; already covered
		}
		f.mu.Lock()
		f.framesApplied++
		f.updatesApplied += uint64(len(rec.Updates))
		f.lastFrame = time.Now()
		f.observeSeqLocked(rec.Seq)
		f.mu.Unlock()
	}
}

// poison forces the next connect to request a full snapshot bootstrap.
func (f *Follower) poison() {
	f.mu.Lock()
	f.forceBoot = true
	f.gaps++
	f.mu.Unlock()
}

// observeSeqLocked advances the highest primary seq we know of (mu held).
func (f *Follower) observeSeqLocked(seq uint64) {
	if seq > f.primarySeq {
		f.primarySeq = seq
	}
}

// pollLoop keeps primarySeq (and with it seq_lag) honest while the stream
// is quiet or down, via the primary's cheap healthz probe.
func (f *Follower) pollLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			if seq, err := f.pollPrimarySeq(); err == nil {
				f.mu.Lock()
				f.observeSeqLocked(seq)
				f.mu.Unlock()
			}
		}
	}
}

func (f *Follower) pollPrimarySeq() (uint64, error) {
	ctx, cancel := context.WithTimeout(f.ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replicate: healthz status %d", resp.StatusCode)
	}
	var h wire.HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return 0, err
	}
	return h.Seq, nil
}

// decodeWireError turns a non-200 replication response into an error,
// surfacing the wire error envelope when present.
func decodeWireError(resp *http.Response) error {
	var envelope wire.ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(data, &envelope); err == nil && envelope.Error != nil {
		envelope.Error.Status = resp.StatusCode
		return envelope.Error
	}
	return fmt.Errorf("replicate: primary answered %s", resp.Status)
}
