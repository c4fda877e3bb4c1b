package persist

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"kcore"
	"kcore/internal/fault"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/workload"
)

// churnBatches generates count valid batches of size updates each against
// the engine's current state, using the workload churn generator.
func churnBatches(t *testing.T, e *kcore.Engine, count, size int, seed uint64) []kcore.Batch {
	t.Helper()
	cg := graph.New(e.NumVertices())
	for _, ed := range e.Edges() {
		if err := cg.AddEdge(ed[0], ed[1]); err != nil {
			t.Fatal(err)
		}
	}
	ops := workload.Churn(cg, count*size, workload.ChurnOptions{Seed: seed, Skew: 0.3})
	if len(ops) < count*size {
		t.Fatalf("churn produced %d ops, want %d", len(ops), count*size)
	}
	batches := make([]kcore.Batch, count)
	for i := range batches {
		b := make(kcore.Batch, 0, size)
		for _, op := range ops[i*size : (i+1)*size] {
			if op.Insert {
				b = append(b, kcore.Add(op.E.U, op.E.V))
			} else {
				b = append(b, kcore.Remove(op.E.U, op.E.V))
			}
		}
		batches[i] = b
	}
	return batches
}

func TestStoreOpenApplyReopen(t *testing.T) {
	dir := t.TempDir()
	init := func() (*kcore.Engine, error) {
		g := gen.BarabasiAlbert(100, 3, 13)
		return kcore.FromEdges(g.Edges())
	}
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if e.NumEdges() == 0 {
		t.Fatal("Init engine not used")
	}
	// The seed state was snapshotted before Open returned.
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatalf("no initial snapshot: %v", err)
	}

	for _, b := range churnBatches(t, e, 20, 8, 99) {
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Appends != 20 || stats.WALRecords != 20 {
		t.Fatalf("stats = %+v, want 20 appends and records", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	assertSameState(t, e, st2.Engine())
	if got := st2.Stats(); got.RecoveredRecords != 20 || got.TornBytes != 0 {
		t.Fatalf("recovery stats = %+v, want 20 clean records", got)
	}
	// The recovered engine keeps evolving identically to the original.
	extra := churnBatches(t, e, 3, 6, 123)
	for _, b := range extra {
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := st2.Engine().Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	assertSameState(t, e, st2.Engine())
}

// TestStoreInitIgnoredWithState proves Init only seeds a brand-new
// directory.
func TestStoreInitIgnoredWithState(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Engine().AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, Init: func() (*kcore.Engine, error) {
		t.Fatal("Init called for a directory with prior state")
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Engine().Seq() != 1 || !st2.Engine().HasEdge(0, 1) {
		t.Fatalf("prior state not recovered: seq %d", st2.Engine().Seq())
	}
}

// TestStoreCompaction drives the automatic compactor: a tiny CompactBytes
// forces snapshot rolls, after which reopen still recovers the exact state.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	init := func() (*kcore.Engine, error) {
		return kcore.FromEdges(gen.BarabasiAlbert(80, 3, 17).Edges())
	}
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: 512, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	for _, b := range churnBatches(t, e, 40, 8, 7) {
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// The compactor is asynchronous; wait for at least one roll beyond the
	// initial snapshot before closing.
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Compactions < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Compactions < 2 { // initial snapshot + at least one roll
		t.Fatalf("compactions = %d, want >= 2 (stats %+v)", stats.Compactions, stats)
	}
	if stats.SnapshotSeq == 0 {
		t.Fatal("snapshot seq never advanced")
	}

	st2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer st2.Close()
	// Equivalence, not bit-equality: compaction mid-churn rebuilds adjacency
	// in canonical order, so the recovered k-order may break ties differently
	// from the live engine's. See assertEquivalentState for the rationale.
	assertEquivalentState(t, e, st2.Engine())
}

// TestStoreManualSnapshot covers Store.Snapshot (the admin-endpoint path):
// it must shrink the WAL and leave a recoverable state.
func TestStoreManualSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	for i := 0; i < 50; i++ {
		if _, err := e.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	info, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 50 {
		t.Fatalf("snapshot seq = %d, want 50", info.Seq)
	}
	after := st.Stats()
	if after.WALRecords != 0 || after.WALBytes >= before.WALBytes {
		t.Fatalf("WAL not compacted: before %+v after %+v", before, after)
	}
	if _, err := e.AddEdge(100, 101); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	assertSameState(t, e, st2.Engine())
}

// TestApplyRecord pins the skip/chain/apply rule recovery and followers
// share: a covered record is skipped, a chaining record applies like Apply
// (subscribers included), and a gap or a record whose updates do not apply
// is corruption that leaves the engine untouched.
func TestApplyRecord(t *testing.T) {
	rec := func(seq uint64, ups ...kcore.Update) kcore.AppliedBatch {
		return kcore.AppliedBatch{Seq: seq, Updates: ups}
	}
	for _, tc := range []struct {
		name    string
		rec     kcore.AppliedBatch
		applied bool
		corrupt bool
		cause   error // engine sentinel the corruption must also wrap
	}{
		{name: "covered", rec: rec(2, kcore.Add(1, 2))},
		{name: "covered at seq", rec: rec(3, kcore.Add(0, 2))},
		{name: "chains", rec: rec(5, kcore.Add(2, 3), kcore.Add(3, 4)), applied: true},
		{name: "gap", rec: rec(5, kcore.Add(3, 4)), corrupt: true},
		{name: "overlap", rec: rec(4, kcore.Add(1, 2), kcore.Add(2, 3)), corrupt: true},
		{name: "does not apply", rec: rec(4, kcore.Add(0, 1)), corrupt: true, cause: kcore.ErrDuplicateEdge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := kcore.NewEngine()
			if _, err := e.Apply(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}); err != nil {
				t.Fatal(err)
			}
			before, edges := e.Cores(), e.NumEdges()
			events, cancel := e.Subscribe(kcore.WithBuffer(16))
			defer cancel()

			applied, err := ApplyRecord(e, tc.rec)
			if applied != tc.applied || errors.Is(err, ErrCorruptWAL) != tc.corrupt || (err != nil) != tc.corrupt {
				t.Fatalf("ApplyRecord = (%v, %v), want applied %v, corrupt %v", applied, err, tc.applied, tc.corrupt)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("err = %v, want it to wrap %v", err, tc.cause)
			}
			if !tc.applied {
				if e.Seq() != 3 || e.NumEdges() != edges || !slices.Equal(e.Cores(), before) || len(events) != 0 {
					t.Fatalf("engine changed: seq %d, %d edges, cores %v, %d events", e.Seq(), e.NumEdges(), e.Cores(), len(events))
				}
				return
			}
			if e.Seq() != tc.rec.Seq || !e.HasEdge(3, 4) || len(events) == 0 {
				t.Fatalf("chaining record: seq %d (want %d), edge 3-4 %v, %d events", e.Seq(), tc.rec.Seq, e.HasEdge(3, 4), len(events))
			}
		})
	}
}

// TestOpenSkipsCoveredRecords reconstructs the crash window between a
// compaction's snapshot rename and its WAL shrink: the snapshot already
// covers a WAL prefix, and replay must skip exactly that prefix.
func TestOpenSkipsCoveredRecords(t *testing.T) {
	dirA := t.TempDir()
	st, err := Open(dirA, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	var mid *kcore.IndexState
	for i := 0; i < 30; i++ {
		if _, err := e.AddEdge(i%7, 7+i); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			s := e.Index()
			mid = s
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// dirB = mid-stream snapshot + the FULL WAL (first 20 records covered).
	dirB := t.TempDir()
	data, err := EncodeSnapshot(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, SnapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dirA, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, WALFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dirB, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().RecoveredRecords; got != 10 {
		t.Fatalf("replayed %d records, want 10 (20 covered by snapshot)", got)
	}
	assertSameState(t, e, st2.Engine())
}

// TestStoreHookFailureSurfaces proves a WAL append failure reaches the
// Apply caller as a *kcore.HookError while the in-memory state advanced.
func TestStoreHookFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Sabotage the WAL file handle to force the next append to fail.
	st.mu.Lock()
	st.wal.f.Close()
	st.mu.Unlock()
	_, err = e.AddEdge(1, 2)
	var he *kcore.HookError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *kcore.HookError", err)
	}
	if !e.HasEdge(1, 2) || e.Seq() != 2 {
		t.Fatal("in-memory state must still advance on a hook failure")
	}
	// The rollback itself also failed (the fd is closed), so the log is
	// sealed: further appends are refused instead of landing after a
	// potential partial frame.
	if _, err := e.AddEdge(2, 3); !errors.As(err, &he) {
		t.Fatalf("append after a failed rollback = %v, want *kcore.HookError (sealed log)", err)
	}
}

// TestStoreAppendFailureThenReopen pins the transient-write-error scenario:
// after one failed WAL append the engine keeps advancing (HookError
// contract) while the log does not, so later batches must be REFUSED —
// never written as records with a sequence gap, which would fail replay's
// chaining check and make the directory unrecoverable. A reopen must
// succeed and land on the last durable state.
func TestStoreAppendFailureThenReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Sabotage the handle: the next append's write (and its rollback) fail.
	st.mu.Lock()
	st.wal.f.Close()
	st.mu.Unlock()
	var he *kcore.HookError
	if _, err := e.AddEdge(1, 2); !errors.As(err, &he) {
		t.Fatalf("first failed append = %v, want *kcore.HookError", err)
	}
	// The batch AFTER the failure is where the old bug lived: it must not
	// produce a gap record.
	if _, err := e.AddEdge(2, 3); !errors.As(err, &he) {
		t.Fatalf("append after failure = %v, want *kcore.HookError", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close with a sealed WAL: %v", err)
	}
	// The on-disk log holds exactly the one durable record — no gap.
	var seqs []uint64
	if _, _, err := ScanWALFile(filepath.Join(dir, WALFile), func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("WAL records = %v, want [1]", seqs)
	}
	// Recovery succeeds on the last durable state, and logging resumes.
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen after failed append: %v", err)
	}
	defer st2.Close()
	e2 := st2.Engine()
	if e2.Seq() != 1 || !e2.HasEdge(0, 1) || e2.HasEdge(1, 2) {
		t.Fatalf("recovered seq %d, want the pre-failure durable state (seq 1)", e2.Seq())
	}
	if _, err := e2.AddEdge(1, 2); err != nil {
		t.Fatalf("append on the recovered store: %v", err)
	}
}

// TestStoreSnapshotHealsFailedWAL: a snapshot is the repair path after a
// failed append — it captures the advanced in-memory state (so the
// un-logged batch is not lost), rebuilds the log file, and appends resume
// without a restart.
func TestStoreSnapshotHealsFailedWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.wal.f.Close()
	st.mu.Unlock()
	var he *kcore.HookError
	if _, err := e.AddEdge(1, 2); !errors.As(err, &he) {
		t.Fatalf("failed append = %v, want *kcore.HookError", err)
	}
	info, err := st.Snapshot()
	if err != nil {
		t.Fatalf("healing snapshot: %v", err)
	}
	if info.Seq != 2 {
		t.Fatalf("healing snapshot seq = %d, want 2 (the advanced state)", info.Seq)
	}
	if _, err := e.AddEdge(2, 3); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer st2.Close()
	if st2.Engine().Seq() != 3 {
		t.Fatalf("recovered seq = %d, want 3 (nothing lost)", st2.Engine().Seq())
	}
	assertSameState(t, e, st2.Engine())
}

// TestStoreAutoHealAfterAppendFailure: with background compaction enabled,
// a failed append schedules the healing snapshot itself — applies start
// succeeding again without manual intervention, and nothing is lost.
func TestStoreAutoHealAfterAppendFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.wal.f.Close()
	st.mu.Unlock()
	var he *kcore.HookError
	if _, err := e.AddEdge(1, 2); !errors.As(err, &he) {
		t.Fatalf("failed append = %v, want *kcore.HookError", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	healed := false
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := e.AddEdge(2+i, 3+i); err == nil {
			healed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !healed {
		t.Fatalf("store did not heal itself after a failed append (stats %+v)", st.Stats())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("reopen after auto-heal: %v", err)
	}
	defer st2.Close()
	assertSameState(t, e, st2.Engine())
}

// TestStoreTransientAppendFailureNoLoss: one failed write under continued
// traffic loses nothing — the deferred record rides ahead of the next
// successful append, no heal or restart needed.
func TestStoreTransientAppendFailureNoLoss(t *testing.T) {
	dir := t.TempDir()
	pl := fault.New(1)
	// AppendRetries: -1 disables the in-line retry so the fault surfaces
	// to the caller (the retry path has its own test below).
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1, Fault: pl, AppendRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	pl.Fail(fault.WALWrite, 1, errors.New("transient: no space left on device"))
	var he *kcore.HookError
	if _, err := e.AddEdge(1, 2); !errors.As(err, &he) {
		t.Fatalf("failed append = %v, want *kcore.HookError", err)
	}
	// The very next batch succeeds and carries the deferred record with it.
	if _, err := e.AddEdge(2, 3); err != nil {
		t.Fatalf("append after transient failure: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Engine().Seq() != 3 {
		t.Fatalf("recovered seq = %d, want 3 (the transiently failed batch included)", st2.Engine().Seq())
	}
	assertSameState(t, e, st2.Engine())
}

// TestStoreAppendRetryAbsorbsBlip: with the default in-line retry enabled,
// a one-shot write fault never surfaces to the Apply caller at all — the
// hook re-flushes the deferred frame after a short backoff, the caller sees
// nil, and Stats counts the save.
func TestStoreAppendRetryAbsorbsBlip(t *testing.T) {
	dir := t.TempDir()
	pl := fault.New(1)
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1, Fault: pl})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	pl.Fail(fault.WALWrite, 1, errors.New("transient: EIO blip"))
	if _, err := e.AddEdge(1, 2); err != nil {
		t.Fatalf("append with one-shot fault = %v, want nil (absorbed by in-line retry)", err)
	}
	if got := st.Stats().AppendRetrySaves; got != 1 {
		t.Fatalf("AppendRetrySaves = %d, want 1", got)
	}
	if !st.WALAppendable() {
		t.Fatal("store should be fully appendable after the retry save")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Engine().Seq() != 2 {
		t.Fatalf("recovered seq = %d, want 2 (the retried batch is durable)", st2.Engine().Seq())
	}
	assertSameState(t, e, st2.Engine())
}

// TestStoreAppendRetryGivesUpOnPersistentFault: a fault that outlasts the
// retry budget surfaces as *kcore.HookError, and the deferred record still
// rides ahead of the next successful append — the bounded retry changes
// latency, never durability semantics.
func TestStoreAppendRetryGivesUpOnPersistentFault(t *testing.T) {
	dir := t.TempDir()
	pl := fault.New(1)
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1, Fault: pl})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Default budget is 1 initial try + 2 retries; arm 3 failures.
	pl.Fail(fault.WALWrite, 3, errors.New("persistent: no space left on device"))
	var he *kcore.HookError
	if _, err := e.AddEdge(1, 2); !errors.As(err, &he) {
		t.Fatalf("append past retry budget = %v, want *kcore.HookError", err)
	}
	if st.WALAppendable() {
		t.Fatal("store should report a WAL backlog after exhausted retries")
	}
	// Fault spent: the next batch flushes the backlog and heals.
	if _, err := e.AddEdge(2, 3); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	if !st.WALAppendable() {
		t.Fatal("store should be appendable again once the backlog flushed")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Engine().Seq() != 3 {
		t.Fatalf("recovered seq = %d, want 3 (no loss)", st2.Engine().Seq())
	}
	assertSameState(t, e, st2.Engine())
}

// TestStoreSnapshotPartialCompactionFailure: when the snapshot file lands,
// the WAL shrink fails, but the log remains append-ready, Snapshot reports
// partial success — a valid SnapshotInfo plus an ErrCompaction-wrapped
// error — appends keep working, and the directory still recovers (replay
// skips the records the snapshot covers).
func TestStoreSnapshotPartialCompactionFailure(t *testing.T) {
	dir := t.TempDir()
	pl := fault.New(1)
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1, Fault: pl})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	pl.Fail(fault.WALCompact, 1, errors.New("transient compaction failure"))
	info, err := st.Snapshot()
	if !errors.Is(err, ErrCompaction) {
		t.Fatalf("err = %v, want ErrCompaction", err)
	}
	if info.Seq != 1 || info.Bytes == 0 {
		t.Fatalf("info = %+v, want the durably written snapshot", info)
	}
	// Partial success means exactly that: the log still accepts appends.
	if _, err := e.AddEdge(1, 2); err != nil {
		t.Fatalf("append after partial compaction failure: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen after partial compaction failure: %v", err)
	}
	defer st2.Close()
	assertSameState(t, e, st2.Engine())
}

// TestStoreSnapshotDeadHandleNotPartialSuccess: a compaction that fails
// because the WAL handle is dead must NOT be reported as ErrCompaction —
// the log cannot accept appends, so "partial success, don't re-trigger"
// would strand the operator. Re-triggering the snapshot rebuilds the file
// and heals.
func TestStoreSnapshotDeadHandleNotPartialSuccess(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.wal.f.Close()
	st.mu.Unlock()
	info, err := st.Snapshot()
	if err == nil || errors.Is(err, ErrCompaction) {
		t.Fatalf("err = %v, want a real (non-ErrCompaction) failure: the log is not append-ready", err)
	}
	if info.Seq != 1 {
		t.Fatalf("info.Seq = %d, want 1 (the snapshot itself landed)", info.Seq)
	}
	// Re-triggering rebuilds the sealed log through a rename and heals.
	if _, err := st.Snapshot(); err != nil {
		t.Fatalf("second snapshot should heal the sealed log: %v", err)
	}
	if _, err := e.AddEdge(1, 2); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	defer st2.Close()
	assertSameState(t, e, st2.Engine())
}

// TestStoreCloseReportsOnlyUnhealedCompactionError: Close reports a
// background compaction failure only while it is live. A later compaction
// that fully succeeds heals it (CompactErrors keeps the history), while a
// compaction still failing at close is reported.
func TestStoreCloseReportsOnlyUnhealedCompactionError(t *testing.T) {
	injected := errors.New("injected compaction failure")
	// failBackground opens a store whose WAL compaction fails count times
	// (0 = always), and returns once a background compaction has failed.
	failBackground := func(t *testing.T, count int) *Store {
		t.Helper()
		pl := fault.New(1)
		pl.Fail(fault.WALCompact, count, injected)
		st, err := Open(t.TempDir(), Options{Sync: SyncOff, CompactBytes: 64, Fault: pl})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if _, err := st.Engine().AddEdge(i, i+1); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for st.Stats().CompactErrors == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if st.Stats().CompactErrors == 0 {
			t.Fatalf("background compaction never failed (stats %+v)", st.Stats())
		}
		return st
	}

	t.Run("healed", func(t *testing.T) {
		// A one-shot fault: every compaction after the recorded failure
		// succeeds, so no failure can be recorded after the heal below.
		st := failBackground(t, 1)
		if _, err := st.Snapshot(); err != nil {
			t.Fatalf("snapshot after the fault cleared: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close reported a healed compaction error: %v", err)
		}
		if st.Stats().CompactErrors == 0 {
			t.Fatal("CompactErrors lost the lifetime count")
		}
	})
	t.Run("still-failing", func(t *testing.T) {
		st := failBackground(t, 0)
		if err := st.Close(); !errors.Is(err, injected) {
			t.Fatalf("Close = %v, want the live compaction failure", err)
		}
	})
}

// TestIntervalSyncCoversIdleTail: under the interval policy a lone batch
// followed by silence must still be fsynced within about one period by the
// background timer, not wait for the next append.
func TestIntervalSyncCoversIdleTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Engine().AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().Syncs > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no fsync within 5s of an idle append (stats %+v)", st.Stats())
}
