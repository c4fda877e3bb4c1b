// Package tenant hosts many independent k-core engines in one process.
//
// A Manager is a registry of named tenants. Each tenant owns an engine, an
// optional durable persist.Store rooted in a per-tenant subdirectory of the
// manager's data directory, and an Attachment — serving-plane state (ingest
// coalescer, watch ring, availability tracker) built by the owner through
// Options.Attach. The lifecycle is:
//
//   - create by touch: the first write to an unknown name admits a fresh
//     tenant (reads of unknown names fail with ErrUnknownTenant);
//   - lazy load: a tenant with durable state on disk is recovered from its
//     snapshot + WAL tail on first access, not at boot;
//   - idle eviction: a store-backed tenant that stays unreferenced for
//     Options.IdleAfter is snapshotted and closed, freeing its memory while
//     keeping it one touch away from serving again;
//   - bounded residency: at most MaxTenants tenants are resident at once;
//     admission beyond the bound fails with ErrTenantLimit.
//
// Acquire/Release reference counting makes eviction safe under load:
// eviction first closes the attachment (which must stop writers and wake
// blocked readers), waits for references to drain, then snapshots and closes
// the store.
package tenant

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"kcore"
	"kcore/internal/persist"
)

// DefaultName is the tenant the legacy single-tenant /v1 routes alias.
const DefaultName = "default"

// DefaultMaxTenants bounds residency when Options.MaxTenants is zero.
const DefaultMaxTenants = 64

var (
	// ErrUnknownTenant: the name is neither resident nor on disk, and the
	// access was not allowed to create it.
	ErrUnknownTenant = errors.New("unknown tenant")
	// ErrTenantLimit: admitting the tenant would exceed MaxTenants.
	ErrTenantLimit = errors.New("tenant limit reached")
	// ErrInvalidName: the name fails the tenant-name grammar.
	ErrInvalidName = errors.New("invalid tenant name")
	// ErrClosed: the manager has shut down.
	ErrClosed = errors.New("tenant manager closed")
	// ErrPinned: the tenant is pinned (the default tenant) and cannot be
	// evicted.
	ErrPinned = errors.New("tenant is pinned")
)

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// ValidName reports whether name can be used as a tenant name. Names double
// as directory names under the data dir, so the grammar is deliberately
// conservative: lowercase alphanumerics plus '.', '_', '-', starting with an
// alphanumeric, at most 64 bytes, and never containing "..".
func ValidName(name string) bool {
	return nameRE.MatchString(name) && !strings.Contains(name, "..")
}

// Attachment is owner state carried by a resident tenant — typically the
// serving plane. Close is called exactly once, during eviction or manager
// shutdown, before the tenant's store is snapshotted and closed. It must
// stop all writers into the engine and wake every blocked reader so the
// tenant's reference count can drain.
type Attachment interface {
	Close()
}

// Options configures a Manager.
type Options struct {
	// DataDir is the serving data directory. Named tenants persist under
	// DataDir/tenants/<name> (the directory root itself belongs to the
	// default tenant, preserving the single-tenant layout). Empty means
	// every tenant is memory-only; memory-only tenants are never
	// idle-evicted, since evicting without a snapshot would destroy data.
	DataDir string

	// MaxTenants bounds resident tenants (default DefaultMaxTenants).
	MaxTenants int

	// IdleAfter evicts store-backed, unreferenced tenants untouched for
	// this long. Zero disables idle eviction.
	IdleAfter time.Duration

	// Persist is the store configuration template for tenant stores; its
	// Init field is overridden per tenant. Every tenant engine, fresh or
	// recovered, is a default engine (kcore.NewEngine, no options).
	Persist persist.Options

	// Attach builds the owner's serving state once a tenant's engine (and
	// store, if durable) is ready. Runs once per residency, outside the
	// registry lock. Nil leaves tenants without attachments.
	Attach func(*Tenant) (Attachment, error)

	now func() time.Time // test hook
}

// Manager is the tenant registry. All methods are safe for concurrent use.
type Manager struct {
	opts Options
	stop chan struct{}
	idle chan struct{} // closed when the idle loop exits; nil if none

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	loads      uint64 // residencies recovered from disk
	creates    uint64 // residencies created fresh by touch
	evictions  uint64
	rejections uint64 // admissions refused at the tenant limit
}

// NewManager starts a manager (and its idle-eviction loop, when configured).
// Callers must Close it.
func NewManager(opts Options) *Manager {
	if opts.MaxTenants <= 0 {
		opts.MaxTenants = DefaultMaxTenants
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	m := &Manager{
		opts:    opts,
		stop:    make(chan struct{}),
		tenants: make(map[string]*Tenant),
	}
	if opts.IdleAfter > 0 && opts.DataDir != "" {
		m.idle = make(chan struct{})
		go m.idleLoop()
	}
	return m
}

// Tenant is one resident (or loading, or evicting) tenant. The engine,
// store, and attachment are immutable once the load completes.
type Tenant struct {
	name    string
	m       *Manager
	pinned  bool
	adopted bool // store owned by the caller; never snapshot/close it

	loaded   chan struct{} // closed when engine/store/att (or loadErr) are set
	engine   *kcore.Engine
	store    *persist.Store
	att      Attachment
	loadErr  error
	fromDisk bool

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when refs drains to zero
	refs      int
	lastTouch time.Time
	closing   bool
	gone      chan struct{} // closed when the tenant has left the registry
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Engine returns the tenant's engine. Valid only while the caller holds a
// reference from Acquire (or, for adopted tenants, for the owner).
func (t *Tenant) Engine() *kcore.Engine { return t.engine }

// Store returns the tenant's durable store, or nil for memory-only tenants.
func (t *Tenant) Store() *persist.Store { return t.store }

// Attachment returns the serving state built by Options.Attach (nil if none).
func (t *Tenant) Attachment() Attachment { return t.att }

// Pinned reports whether the tenant is exempt from eviction.
func (t *Tenant) Pinned() bool { return t.pinned }

// FromDisk reports whether this residency was recovered from durable state
// (as opposed to created fresh by touch).
func (t *Tenant) FromDisk() bool { return t.fromDisk }

// Release drops a reference taken by Acquire.
func (t *Tenant) Release() {
	t.mu.Lock()
	t.refs--
	t.lastTouch = t.m.opts.now()
	if t.refs == 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

func (m *Manager) newResident(name string, pinned, adopted bool) *Tenant {
	t := &Tenant{
		name:      name,
		m:         m,
		pinned:    pinned,
		adopted:   adopted,
		loaded:    make(chan struct{}),
		gone:      make(chan struct{}),
		lastTouch: m.opts.now(),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Acquire resolves name to a resident tenant and takes a reference,
// recovering the tenant from its on-disk store — or, when create is true,
// admitting a fresh one — as needed. The caller must Release the tenant when
// done with it; eviction waits for references to drain. Reads of names with
// no durable state fail with ErrUnknownTenant unless create is set.
func (m *Manager) Acquire(name string, create bool) (*Tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrClosed
		}
		if t, ok := m.tenants[name]; ok {
			m.mu.Unlock()
			<-t.loaded
			if t.loadErr != nil {
				return nil, t.loadErr
			}
			t.mu.Lock()
			if t.closing {
				t.mu.Unlock()
				<-t.gone // wait out the eviction, then resolve afresh
				continue
			}
			t.refs++
			t.lastTouch = m.opts.now()
			t.mu.Unlock()
			return t, nil
		}
		onDisk := m.opts.DataDir != "" &&
			persist.HasState(persist.TenantDir(m.opts.DataDir, name))
		if !onDisk && !create {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
		}
		if len(m.tenants) >= m.opts.MaxTenants {
			m.rejections++
			m.mu.Unlock()
			return nil, fmt.Errorf("%w (max %d resident)", ErrTenantLimit, m.opts.MaxTenants)
		}
		t := m.newResident(name, false, false)
		t.fromDisk = onDisk
		t.refs = 1
		m.tenants[name] = t
		if onDisk {
			m.loads++
		} else {
			m.creates++
		}
		m.mu.Unlock()

		m.load(t)
		if t.loadErr != nil {
			// The residency never served; remove it so a later touch can
			// retry (e.g. after a transient disk error heals).
			m.mu.Lock()
			delete(m.tenants, name)
			m.mu.Unlock()
			close(t.gone)
			return nil, t.loadErr
		}
		return t, nil
	}
}

// load opens the tenant's store (or builds a fresh engine) and attaches the
// serving plane, then publishes the result by closing t.loaded.
func (m *Manager) load(t *Tenant) {
	defer close(t.loaded)
	if m.opts.DataDir != "" {
		popts := m.opts.Persist
		popts.Init = nil
		st, err := persist.Open(persist.TenantDir(m.opts.DataDir, t.name), popts)
		if err != nil {
			t.loadErr = fmt.Errorf("tenant %q: %w", t.name, err)
			return
		}
		t.store = st
		t.engine = st.Engine()
	} else {
		t.engine = kcore.NewEngine()
	}
	if m.opts.Attach != nil {
		att, err := m.opts.Attach(t)
		if err != nil {
			if t.store != nil {
				t.store.Close()
				t.store = nil
			}
			t.engine = nil
			t.loadErr = fmt.Errorf("tenant %q: attach: %w", t.name, err)
			return
		}
		t.att = att
	}
}

// Adopt registers an externally constructed engine/store pair — the boot
// path's default tenant — as a resident, pinned tenant. The manager treats
// an adopted store as caller-owned: it closes the attachment on shutdown but
// never snapshots or closes the store; its owner does, after Manager.Close.
func (m *Manager) Adopt(name string, e *kcore.Engine, st *persist.Store) (*Tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := m.tenants[name]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("tenant %q already resident", name)
	}
	if len(m.tenants) >= m.opts.MaxTenants {
		m.rejections++
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (max %d resident)", ErrTenantLimit, m.opts.MaxTenants)
	}
	t := m.newResident(name, true, true)
	t.engine = e
	t.store = st
	t.fromDisk = st != nil
	m.tenants[name] = t
	m.mu.Unlock()

	if m.opts.Attach != nil {
		att, err := m.opts.Attach(t)
		if err != nil {
			t.loadErr = fmt.Errorf("tenant %q: attach: %w", t.name, err)
			close(t.loaded)
			m.mu.Lock()
			delete(m.tenants, name)
			m.mu.Unlock()
			close(t.gone)
			return nil, t.loadErr
		}
		t.att = att
	}
	close(t.loaded)
	return t, nil
}

// Evict removes tenant name from residency: new requests stop resolving to
// it, its attachment is closed (draining writers and waking watchers), and
// once references drain its store is snapshotted and closed, leaving the
// state one lazy load away. Evicting a memory-only tenant discards its
// graph. Evicting a name that is on disk but not resident is a no-op;
// a fully unknown name is ErrUnknownTenant; pinned tenants refuse with
// ErrPinned.
func (m *Manager) Evict(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	m.mu.Lock()
	t, ok := m.tenants[name]
	if !ok {
		onDisk := m.opts.DataDir != "" &&
			persist.HasState(persist.TenantDir(m.opts.DataDir, name))
		m.mu.Unlock()
		if onDisk {
			return nil // already cold
		}
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if t.pinned {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPinned, name)
	}
	m.mu.Unlock()
	m.retire(t, false)
	return nil
}

// retire drives one tenant through shutdown. With idleOnly set it aborts
// unless the tenant is still unreferenced and idle-expired at decision time
// (an Acquire may have raced the idle sweep).
func (m *Manager) retire(t *Tenant, idleOnly bool) {
	<-t.loaded
	if t.loadErr != nil {
		return // failed loads remove themselves in Acquire
	}
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		<-t.gone
		return
	}
	if idleOnly && (t.refs > 0 || m.opts.now().Sub(t.lastTouch) < m.opts.IdleAfter) {
		t.mu.Unlock()
		return
	}
	t.closing = true
	t.mu.Unlock()

	if t.att != nil {
		t.att.Close()
	}
	t.mu.Lock()
	for t.refs > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()

	if t.store != nil && !t.adopted {
		// ErrCompaction is partial success: the snapshot itself landed and
		// the WAL tail still covers anything it missed, so the state reloads
		// intact either way.
		if _, err := t.store.Snapshot(); err != nil && !errors.Is(err, persist.ErrCompaction) {
			// Snapshot failed outright; the WAL up to the last applied batch
			// remains the source of truth for the next load.
			_ = err
		}
		t.store.Close()
	}

	m.mu.Lock()
	delete(m.tenants, t.name)
	m.evictions++
	m.mu.Unlock()
	close(t.gone)
}

func (m *Manager) idleLoop() {
	defer close(m.idle)
	interval := m.opts.IdleAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.sweepIdle()
		}
	}
}

func (m *Manager) sweepIdle() {
	m.mu.Lock()
	var victims []*Tenant
	for _, t := range m.tenants {
		if t.pinned {
			continue
		}
		select {
		case <-t.loaded:
		default:
			continue // still loading
		}
		if t.loadErr != nil || t.store == nil {
			continue // memory-only tenants are never idle-evicted
		}
		t.mu.Lock()
		expired := t.refs == 0 && !t.closing &&
			m.opts.now().Sub(t.lastTouch) >= m.opts.IdleAfter
		t.mu.Unlock()
		if expired {
			victims = append(victims, t)
		}
	}
	m.mu.Unlock()
	for _, t := range victims {
		m.retire(t, true)
	}
}

// Close evicts every resident tenant — closing attachments, draining
// references, snapshotting owned stores — and shuts the manager down.
// Adopted stores are left open for their owners. Safe to call more than
// once.
func (m *Manager) Close() {
	m.mu.Lock()
	first := !m.closed
	m.closed = true
	all := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		all = append(all, t)
	}
	m.mu.Unlock()
	if first {
		close(m.stop)
	}
	if m.idle != nil {
		<-m.idle
	}
	for _, t := range all {
		m.retire(t, false)
	}
}

// State describes where a tenant is in its lifecycle.
type State string

const (
	StateLoading  State = "loading"  // residency admitted, recovery in progress
	StateReady    State = "ready"    // serving
	StateEvicting State = "evicting" // draining references / flushing
	StateUnloaded State = "unloaded" // durable state on disk, not resident
)

// Info is a point-in-time snapshot of one tenant for listings.
type Info struct {
	Name     string
	State    State
	Pinned   bool
	Resident bool
	Durable  bool // has (or is) durable state
	Refs     int
	IdleFor  time.Duration // time since last touch; 0 while referenced
	Seq      uint64
	Vertices int
	Edges    int
}

// List returns every known tenant — resident ones plus durable ones still
// cold on disk — sorted by name.
func (m *Manager) List() []Info {
	m.mu.Lock()
	residents := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		residents = append(residents, t)
	}
	m.mu.Unlock()

	now := m.opts.now()
	infos := make(map[string]Info, len(residents))
	for _, t := range residents {
		in := Info{Name: t.name, Resident: true, Pinned: t.pinned}
		select {
		case <-t.loaded:
			if t.loadErr != nil {
				continue
			}
			t.mu.Lock()
			in.Refs = t.refs
			if t.refs == 0 {
				in.IdleFor = now.Sub(t.lastTouch)
			}
			if t.closing {
				in.State = StateEvicting
			} else {
				in.State = StateReady
			}
			t.mu.Unlock()
			in.Durable = t.store != nil
			in.Vertices, in.Edges, _, in.Seq = t.engine.Counts()
		default:
			in.State = StateLoading
		}
		infos[t.name] = in
	}
	if m.opts.DataDir != "" {
		names, _ := persist.ListTenantDirs(m.opts.DataDir)
		for _, n := range names {
			if _, ok := infos[n]; !ok {
				infos[n] = Info{Name: n, State: StateUnloaded, Durable: true}
			}
		}
	}
	out := make([]Info, 0, len(infos))
	for _, in := range infos {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats reports manager-level counters.
type Stats struct {
	Resident   int
	MaxTenants int
	Loads      uint64 // residencies recovered from disk
	Creates    uint64 // residencies created fresh by touch
	Evictions  uint64
	Rejections uint64 // admissions refused at the tenant limit
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Resident:   len(m.tenants),
		MaxTenants: m.opts.MaxTenants,
		Loads:      m.loads,
		Creates:    m.creates,
		Evictions:  m.evictions,
		Rejections: m.rejections,
	}
}
