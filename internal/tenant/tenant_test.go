package tenant

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/persist"
)

type testAtt struct {
	closed atomic.Bool
}

func (a *testAtt) Close() { a.closed.Store(true) }

// newTestManager builds a manager with a durable data dir and an attachment
// recorder.
func newTestManager(t *testing.T, opts Options) (*Manager, *sync.Map) {
	t.Helper()
	var atts sync.Map // name -> *testAtt (last attachment per name)
	opts.Attach = func(tn *Tenant) (Attachment, error) {
		a := &testAtt{}
		atts.Store(tn.Name(), a)
		return a, nil
	}
	opts.Persist.Sync = persist.SyncOff
	m := NewManager(opts)
	t.Cleanup(m.Close)
	return m, &atts
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"default", "a", "t-1", "team.red", "a_b", "0x9"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "a"
	}
	for _, bad := range []string{"", ".", "..", "a..b", "-x", "_x", "A", "a/b", "a b", long, "café"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

func TestCreateByTouchAndUnknown(t *testing.T) {
	m, _ := newTestManager(t, Options{DataDir: t.TempDir()})

	if _, err := m.Acquire("ghost", false); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("read of unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	if _, err := m.Acquire("no/slash", true); !errors.Is(err, ErrInvalidName) {
		t.Fatalf("invalid name: err = %v, want ErrInvalidName", err)
	}

	tn, err := m.Acquire("alpha", true)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Store() == nil || tn.FromDisk() {
		t.Fatalf("fresh durable tenant: store=%v fromDisk=%v", tn.Store(), tn.FromDisk())
	}
	if _, err := tn.Engine().AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	tn.Release()

	// Now known: reads resolve without create.
	tn2, err := m.Acquire("alpha", false)
	if err != nil {
		t.Fatal(err)
	}
	if tn2 != tn {
		t.Fatal("second acquire returned a different residency")
	}
	tn2.Release()

	st := m.Stats()
	if st.Creates != 1 || st.Loads != 0 || st.Resident != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLazyReloadAfterEvict(t *testing.T) {
	m, atts := newTestManager(t, Options{DataDir: t.TempDir()})
	tn, err := m.Acquire("alpha", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tn.Engine().AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	tn.Release()

	if err := m.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	if a, _ := atts.Load("alpha"); !a.(*testAtt).closed.Load() {
		t.Fatal("eviction did not close the attachment")
	}
	if m.Stats().Resident != 0 {
		t.Fatalf("resident = %d after evict", m.Stats().Resident)
	}
	// Cold but durable: listed as unloaded, evicting again is a no-op.
	infos := m.List()
	if len(infos) != 1 || infos[0].State != StateUnloaded || !infos[0].Durable {
		t.Fatalf("List after evict = %+v", infos)
	}
	if err := m.Evict("alpha"); err != nil {
		t.Fatal(err)
	}

	// A read (not a write) lazily reloads the evicted state.
	tn2, err := m.Acquire("alpha", false)
	if err != nil {
		t.Fatal(err)
	}
	defer tn2.Release()
	if !tn2.FromDisk() {
		t.Fatal("reload not marked fromDisk")
	}
	if got := tn2.Engine().Seq(); got != 5 {
		t.Fatalf("reloaded seq = %d, want 5", got)
	}
	if !tn2.Engine().HasEdge(2, 3) {
		t.Fatal("reloaded engine missing edge")
	}
	if st := m.Stats(); st.Loads != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTenantLimit(t *testing.T) {
	m, _ := newTestManager(t, Options{DataDir: t.TempDir(), MaxTenants: 2})
	for _, n := range []string{"a", "b"} {
		tn, err := m.Acquire(n, true)
		if err != nil {
			t.Fatal(err)
		}
		tn.Release()
	}
	if _, err := m.Acquire("c", true); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("over-limit admit: err = %v, want ErrTenantLimit", err)
	}
	if m.Stats().Rejections != 1 {
		t.Fatalf("rejections = %d", m.Stats().Rejections)
	}
	// Evicting one frees a residency slot.
	if err := m.Evict("a"); err != nil {
		t.Fatal(err)
	}
	tn, err := m.Acquire("c", true)
	if err != nil {
		t.Fatalf("post-evict admit: %v", err)
	}
	tn.Release()
}

func TestEvictPinnedAndUnknown(t *testing.T) {
	m, _ := newTestManager(t, Options{DataDir: t.TempDir()})
	if _, err := m.Adopt(DefaultName, kcore.NewEngine(), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(DefaultName); !errors.Is(err, ErrPinned) {
		t.Fatalf("evict default: err = %v, want ErrPinned", err)
	}
	if err := m.Evict("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("evict unknown: err = %v, want ErrUnknownTenant", err)
	}
}

func TestAdoptedStoreNotClosedByManager(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir, persist.Options{Sync: persist.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	m, atts := newTestManager(t, Options{DataDir: dir})
	if _, err := m.Adopt(DefaultName, st.Engine(), st); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if a, _ := atts.Load(DefaultName); !a.(*testAtt).closed.Load() {
		t.Fatal("manager close did not close the default attachment")
	}
	// The adopted store must still be usable by its owner.
	if _, err := st.Engine().AddEdge(7, 8); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIdleEviction(t *testing.T) {
	var clock atomic.Int64 // fake time, nanoseconds
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	m, atts := newTestManager(t, Options{
		DataDir:   t.TempDir(),
		IdleAfter: 40 * time.Millisecond,
		now:       now,
	})
	tn, err := m.Acquire("alpha", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Engine().AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}

	// Referenced tenants never idle out, no matter the clock.
	clock.Add(int64(time.Hour))
	time.Sleep(60 * time.Millisecond) // several sweep intervals
	if m.Stats().Evictions != 0 {
		t.Fatal("idle sweep evicted a referenced tenant")
	}
	tn.Release() // release touches, restarting the idle clock

	clock.Add(int64(time.Hour))
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Evictions == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", m.Stats().Evictions)
	}
	if a, _ := atts.Load("alpha"); !a.(*testAtt).closed.Load() {
		t.Fatal("idle eviction did not close the attachment")
	}
	// State survived the eviction.
	tn2, err := m.Acquire("alpha", false)
	if err != nil {
		t.Fatal(err)
	}
	defer tn2.Release()
	if !tn2.Engine().HasEdge(0, 1) {
		t.Fatal("idle-evicted state lost")
	}
}

func TestMemoryOnlyTenantsNotIdleEvicted(t *testing.T) {
	// No data dir: idle loop must not start, and nothing is evicted.
	m, _ := newTestManager(t, Options{IdleAfter: time.Millisecond})
	tn, err := m.Acquire("mem", true)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Store() != nil {
		t.Fatal("memory-only tenant has a store")
	}
	tn.Release()
	time.Sleep(30 * time.Millisecond)
	if m.Stats().Evictions != 0 {
		t.Fatal("memory-only tenant was idle-evicted")
	}
}

// TestEvictionChurnRace hammers acquire/release against evictions under
// -race: references always drain, evictions never lose applied state, and a
// racing Acquire either lands before the eviction or reloads after it.
func TestEvictionChurnRace(t *testing.T) {
	m, _ := newTestManager(t, Options{DataDir: t.TempDir()})
	const workers = 4
	var wg sync.WaitGroup
	var writes atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tn, err := m.Acquire("churn", true)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if _, err := tn.Engine().AddEdge(w*10000+i, w*10000+i+1); err == nil {
					writes.Add(1)
				}
				tn.Release()
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := m.Evict("churn"); err != nil && !errors.Is(err, ErrUnknownTenant) {
			t.Errorf("evict: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	tn, err := m.Acquire("churn", false)
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Release()
	if got, want := tn.Engine().Seq(), uint64(writes.Load()); got != want {
		t.Fatalf("final seq = %d, want %d applied writes", got, want)
	}
}

func TestListStates(t *testing.T) {
	m, _ := newTestManager(t, Options{DataDir: t.TempDir()})
	if _, err := m.Adopt(DefaultName, kcore.NewEngine(), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tn, err := m.Acquire(fmt.Sprintf("t%d", i), true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Engine().AddEdge(0, i+1); err != nil {
			t.Fatal(err)
		}
		tn.Release()
	}
	if err := m.Evict("t1"); err != nil {
		t.Fatal(err)
	}
	infos := m.List()
	byName := map[string]Info{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if len(infos) != 4 {
		t.Fatalf("List = %+v, want 4 tenants", infos)
	}
	if in := byName[DefaultName]; in.State != StateReady || !in.Pinned || in.Durable {
		t.Fatalf("default info = %+v", in)
	}
	if in := byName["t0"]; in.State != StateReady || in.Seq != 1 || in.Edges != 1 {
		t.Fatalf("t0 info = %+v", in)
	}
	if in := byName["t1"]; in.State != StateUnloaded || !in.Durable || in.Resident {
		t.Fatalf("t1 info = %+v", in)
	}
	// Sorted by name.
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("List not sorted: %+v", infos)
		}
	}
}

func TestAcquireAfterClose(t *testing.T) {
	m, _ := newTestManager(t, Options{DataDir: t.TempDir()})
	m.Close()
	if _, err := m.Acquire("x", true); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}
