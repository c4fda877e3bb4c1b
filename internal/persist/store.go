package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"kcore"
	"kcore/internal/fault"
)

// File names inside a Store directory.
const (
	// SnapshotFile is the current snapshot.
	SnapshotFile = "snapshot.kcs"
	// WALFile is the write-ahead log.
	WALFile = "wal.kcl"
)

// Store manages a durable engine in one directory: a snapshot plus a WAL,
// an apply hook that logs every batch, and compaction that rolls the WAL
// into a fresh snapshot. Open recovers the pre-crash state; Close detaches
// cleanly. All methods are safe for concurrent use.
type Store struct {
	dir        string
	opts       Options
	engine     *kcore.Engine
	removeHook func() // detaches onApply; set once by Open

	// snapMu serializes snapshot writes (manual and automatic compaction)
	// against each other. It is never held while acquiring mu-after-engine
	// paths: a snapshot captures the view first (engine read lock, no store
	// locks), writes the file, and only then takes mu to swap the WAL.
	snapMu sync.Mutex

	// mu guards the WAL handle and the counters below. The apply hook takes
	// it under the engine's write lock, so nothing holding mu may acquire
	// engine locks.
	mu         sync.Mutex
	wal        *wal
	closed     bool
	snapSeq    uint64
	snapBytes  int64
	appends    uint64
	compacts   uint64
	cErrs      uint64
	lastCErr   error
	sErrs      uint64
	lastSErr   error
	recovered  uint64
	recSeq     uint64
	torn       int64
	retrySaves uint64

	compactCh chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
}

// Open recovers (or initializes) a durable engine in dir and returns the
// managing Store. Recovery order: load the snapshot if present (else build
// a fresh engine — via opts.Init for a brand-new directory), apply every
// WAL record past the snapshot's sequence number (see ApplyRecord),
// truncate a torn WAL tail, write the initial snapshot if the directory had
// none, then add the WAL apply hook so every subsequent Apply is logged
// before it returns. Recovery applies into an engine nothing else holds
// yet, so no subscriber or other hook observes the replayed batches. A
// corrupt snapshot or WAL fails Open with ErrCorruptSnapshot /
// ErrCorruptWAL.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	removeStaleTemps(dir)

	s := &Store{dir: dir, opts: opts,
		compactCh: make(chan struct{}, 1), stop: make(chan struct{})}
	snapPath := filepath.Join(dir, SnapshotFile)
	walPath := filepath.Join(dir, WALFile)

	// 1. Base state: snapshot, Init seed, or empty engine.
	hadSnapshot := false
	if data, err := os.ReadFile(snapPath); err == nil {
		e, st, err := decodeEngine(data)
		if err != nil {
			return nil, err
		}
		s.engine = e
		s.snapSeq = st.Seq
		s.snapBytes = int64(len(data))
		hadSnapshot = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	} else {
		fresh := true
		if wst, err := os.Stat(walPath); err == nil && wst.Size() > walHeaderLen {
			// WAL records without a snapshot: the log must start at sequence
			// zero against an empty engine, so an Init seed would be wrong.
			fresh = false
		}
		if fresh && opts.Init != nil {
			e, err := opts.Init()
			if err != nil {
				return nil, fmt.Errorf("persist: init engine: %w", err)
			}
			s.engine = e
		} else {
			s.engine = kcore.NewEngine()
		}
	}

	// 2. Replay the WAL past the snapshot seq, truncating a torn tail.
	var walRecords, walLastSeq uint64
	if f, err := os.OpenFile(walPath, os.O_RDWR, 0); err == nil {
		res, replayed, serr := replayWAL(s.engine, f)
		s.recovered = replayed
		if serr != nil {
			f.Close()
			return nil, serr
		}
		if res.tornBytes > 0 {
			if err := f.Truncate(res.goodOffset); err != nil {
				f.Close()
				return nil, fmt.Errorf("persist: truncate torn WAL tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("persist: sync truncated WAL: %w", err)
			}
			s.torn = res.tornBytes
		}
		f.Close()
		walRecords, walLastSeq = res.records, res.lastSeq
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: open WAL: %w", err)
	}
	s.recSeq = s.engine.Seq()

	// 3. A directory without a snapshot gets one now, so the base state is
	// durable (and recovery above never depends on Init again). This runs
	// before the WAL is opened for appending so the append-side chain base
	// below reflects the snapshot actually on disk.
	if !hadSnapshot {
		if err := s.writeSnapshot(); err != nil {
			return nil, err
		}
	}
	var err error
	if s.wal, err = openWAL(walPath, opts.Sync, opts.SyncEvery, walRecords, walLastSeq, s.snapSeq, opts.Fault); err != nil {
		return nil, err
	}

	// 4. Log every future batch; compact — and, under the interval policy,
	// fsync — in the background.
	s.removeHook = s.engine.AddApplyHook(s.onApply)
	s.wg.Add(1)
	go s.compactLoop()
	if opts.Sync == SyncInterval {
		s.wg.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

// syncLoop is the interval policy's durability timer: appends piggyback an
// fsync when one is due, but a lone batch followed by silence would
// otherwise sit in the page cache indefinitely — this loop bounds the
// exposure of acknowledged-but-unsynced records to roughly one SyncEvery
// period even when no further appends arrive.
func (s *Store) syncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.wal != nil && s.wal.dirty {
				if err := s.wal.sync(); err != nil {
					// A durability failure, not a compaction one: batches it
					// covers were already acknowledged, so count it where
					// Stats.SyncErrors makes it visible.
					s.sErrs++
					s.lastSErr = err
				}
			}
			s.mu.Unlock()
		}
	}
}

// ApplyRecord applies one logged batch to e through Engine.Apply, under the
// rule WAL recovery and replication followers share. A record at or below
// e's sequence number is already covered (by the snapshot e was loaded
// from, or by a bootstrap overlap) and is skipped: applied is false and err
// nil. A record that does not start exactly at e's sequence number, or
// whose updates Apply rejects, fails with an error wrapping ErrCorruptWAL;
// a gap or a rejected update leaves e unchanged. The sequence check and the
// Apply are not atomic, so the caller must be e's only writer.
func ApplyRecord(e *kcore.Engine, rec kcore.AppliedBatch) (applied bool, err error) {
	cur := e.Seq()
	if rec.Seq <= cur {
		return false, nil
	}
	if start := rec.Start(); start != cur {
		return false, fmt.Errorf("%w: record covering seq %d..%d does not chain onto state at seq %d",
			ErrCorruptWAL, start+1, rec.Seq, cur)
	}
	if _, err := e.Apply(kcore.Batch(rec.Updates)); err != nil {
		return false, fmt.Errorf("%w: record ending at seq %d does not apply: %w",
			ErrCorruptWAL, rec.Seq, err)
	}
	return true, nil
}

// replayWAL scans a WAL stream into e through ApplyRecord: records the
// snapshot covers are skipped, and a record that does not chain or apply
// is corruption. Returns the scan outcome (including the torn-tail size
// the caller may truncate) and the number of records replayed.
func replayWAL(e *kcore.Engine, r io.Reader) (walScan, uint64, error) {
	var replayed uint64
	res, err := scanWAL(r, func(rec kcore.AppliedBatch) error {
		applied, err := ApplyRecord(e, rec)
		if applied {
			replayed++
		}
		return err
	})
	return res, replayed, err
}

// removeStaleTemps deletes temp files a crashed snapshot write or WAL
// rewrite left behind.
func removeStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, ".tmp-") &&
			(strings.HasPrefix(name, SnapshotFile) || strings.HasPrefix(name, "wal")) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// Engine returns the managed engine. Mutate it through its normal API; the
// store's hook logs every applied batch.
func (s *Store) Engine() *kcore.Engine { return s.engine }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// onApply is the engine apply hook: it appends the batch to the WAL (the
// engine's write lock is held, so append order equals apply order) and
// schedules a background compaction when the log has outgrown its budget —
// or when the append failed, because a fresh snapshot is also the repair
// path: the engine has advanced past the log (HookError contract: the batch
// stays applied), so the snapshot captures that advanced state, re-covers
// the gap, and rebuilds a sealed log file; appends then chain again with no
// restart. Until the heal lands, every append is refused (errWALGap /
// sealed) rather than written as an unreplayable gap record, so one
// transient write error can never make the directory unrecoverable.
// A plain apply hook never receives a panic-repair record (see
// kcore.AppliedBatch), so the quarantined prefix meets the next append as
// a gap.
func (s *Store) onApply(rec kcore.AppliedBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errStoreClosed
	}
	err := s.wal.append(rec)
	if err != nil {
		err = s.retryAppend(err)
	}
	if err != nil {
		if s.opts.CompactBytes > 0 { // negative disables background compaction entirely
			select {
			case s.compactCh <- struct{}{}:
			default:
			}
		}
		return err
	}
	s.appends++
	if s.opts.CompactBytes > 0 && s.wal.size >= s.opts.CompactBytes {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// retryAppend is the bounded in-line retry of a transiently failed append
// (Options.AppendRetries): when the frame was deferred cleanly — the chain
// is intact, only the write blipped — it sleeps a short jittered backoff
// and re-flushes the backlog, so the Apply caller never sees the fault.
// Appends refused as gaps, sealed logs, and backlog overflows are not
// retried: those need the snapshot heal. The caller holds s.mu (and the
// engine write lock above it), so the backoff bound is the worst-case
// latency added to every concurrent engine operation.
func (s *Store) retryAppend(err error) error {
	if s.opts.AppendRetries <= 0 || errors.Is(err, errWALGap) ||
		s.wal.failed || s.wal.pendingRecords == 0 {
		return err
	}
	bo := fault.Backoff{Min: s.opts.RetryBackoff, Max: 8 * s.opts.RetryBackoff}
	for i := 0; i < s.opts.AppendRetries; i++ {
		time.Sleep(bo.Next())
		ferr := s.wal.flushDeferred()
		if ferr == nil {
			s.retrySaves++
			return nil
		}
		err = ferr
		if s.wal.failed || s.wal.pendingRecords == 0 {
			break // rollback failed or the backlog overflowed: only a heal helps
		}
	}
	return err
}

// compactLoop runs automatic compactions off the apply path.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.compactCh:
			// The failure is recorded before snapMu is released, so it can
			// never land after a later compaction's heal. A signal racing
			// Close can lose to the closed flag inside the snapshot; that is
			// a benign shutdown, not a compaction failure.
			s.snapMu.Lock()
			if _, err := s.snapshotLocked(); err != nil && !errors.Is(err, errStoreClosed) {
				s.mu.Lock()
				s.cErrs++
				s.lastCErr = err
				s.mu.Unlock()
			}
			s.snapMu.Unlock()
		}
	}
}

// SnapshotInfo reports one compaction.
type SnapshotInfo struct {
	// Seq is the sequence number the snapshot captured.
	Seq uint64
	// Bytes is the snapshot file size.
	Bytes int64
}

// Snapshot compacts now: it captures a consistent view, atomically replaces
// the snapshot file, and drops WAL records the new snapshot covers. Writers
// are never blocked during the snapshot file write, only during the
// in-memory capture and the WAL swap — which is an O(1) in-place truncate
// when the snapshot covers the whole log, but degrades to a full log scan
// and tail rewrite (writers waiting throughout) when batches landed after
// the capture. Safe to call at any time (the admin endpoint of kcore-serve
// does); concurrent calls serialize. When only the
// WAL compaction step fails after the snapshot landed, the returned
// SnapshotInfo is still valid and the error wraps ErrCompaction (partial
// success). Snapshot is also the repair path after a failed WAL append: the
// new snapshot re-covers the engine state the log is missing and rebuilds a
// sealed log file, after which appends resume.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is Snapshot with snapMu held.
func (s *Store) snapshotLocked() (SnapshotInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SnapshotInfo{}, errStoreClosed
	}
	s.mu.Unlock()
	if err := s.writeSnapshot(); err != nil {
		return SnapshotInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SnapshotInfo{Seq: s.snapSeq, Bytes: s.snapBytes}
	if s.closed { // closed while the file was being written
		return info, nil
	}
	if err := s.wal.compactTo(s.snapSeq); err != nil {
		if s.wal.failed || s.wal.chainSeq() < s.snapSeq {
			// The log still cannot accept appends (sealed handle, or the
			// engine is ahead of what the log chains onto): this snapshot
			// did NOT heal it, so report a real failure — not the partial
			// success below, which would tell the caller not to retry.
			return info, err
		}
		// The snapshot file is already durably in place and the log keeps
		// accepting appends — only the WAL shrink failed. Wrap with
		// ErrCompaction so callers (the /v1/snapshot handler) can report
		// partial success instead of re-triggering a full snapshot that
		// already succeeded.
		return info, fmt.Errorf("%w: %w", ErrCompaction, err)
	}
	// A full compaction heals any earlier background compaction failure;
	// CompactErrors keeps the lifetime count.
	s.lastCErr = nil
	return info, nil
}

// writeSnapshot captures the engine and atomically replaces the snapshot
// file, updating the snapshot counters. It does not touch the WAL.
func (s *Store) writeSnapshot() error {
	st := s.engine.Index()
	data, err := EncodeSnapshot(st)
	if err != nil {
		return err
	}
	if err := atomicWrite(s.opts.Fault, filepath.Join(s.dir, SnapshotFile), data); err != nil {
		return err
	}
	s.mu.Lock()
	s.snapSeq = st.Seq
	s.snapBytes = int64(len(data))
	s.compacts++
	s.mu.Unlock()
	return nil
}

// WALAppendable reports whether the log can accept the next append: the
// handle is usable and the chain is caught up with the engine. It is the
// health probe behind the server's availability state machine — false
// means every write is currently answered with a durability failure and
// the store needs a heal. It reads the engine's sequence number before
// taking the store lock (nothing holding mu may acquire engine locks);
// the two reads can race a concurrent apply, which at worst reports a
// transiently stale verdict — callers poll.
func (s *Store) WALAppendable() bool {
	seq := s.engine.Seq()
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.wal != nil && !s.wal.failed &&
		s.wal.chainSeq() == seq && s.wal.pendingRecords == 0
}

// Sealed reports whether the WAL handle is unusable — the log refuses
// every append until a compaction rebuilds the file. Sealed is strictly
// worse than !WALAppendable: a non-sealed, non-appendable log (deferred
// backlog) still self-heals on the next successful append, while a sealed
// one cannot accept appends at all.
func (s *Store) Sealed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.wal != nil && s.wal.failed
}

// Heal restores WAL appendability after a durability failure by forcing
// the compaction snapshot described on Snapshot: the fresh snapshot
// captures the engine state the log is missing and rebuilds a sealed log
// file. A store that is already appendable returns nil immediately, so
// the server's degraded-mode recovery probe can call it blindly.
func (s *Store) Heal() error {
	if s.WALAppendable() {
		return nil
	}
	if _, err := s.Snapshot(); err != nil && !errors.Is(err, ErrCompaction) {
		return err
	}
	if !s.WALAppendable() {
		return fmt.Errorf("persist: WAL still not appendable after snapshot")
	}
	return nil
}

// Stats returns the store's durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		SnapshotSeq:      s.snapSeq,
		SnapshotBytes:    s.snapBytes,
		Appends:          s.appends,
		AppendRetrySaves: s.retrySaves,
		Compactions:      s.compacts,
		CompactErrors:    s.cErrs,
		SyncErrors:       s.sErrs,
		RecoveredRecords: s.recovered,
		RecoveredSeq:     s.recSeq,
		TornBytes:        s.torn,
	}
	if s.wal != nil {
		st.WALRecords = s.wal.records
		st.WALBytes = s.wal.size
		st.Syncs = s.wal.syncs
	}
	return st
}

// Close detaches the apply hook, stops the background compactor, and syncs
// and closes the WAL. The engine remains usable afterwards — it just stops
// being logged. Close returns the last background compaction error unless
// a later compaction fully succeeded, and the last interval fsync error if
// any occurred (a later fsync does not heal a failed fsync of acknowledged
// records). It is idempotent.
func (s *Store) Close() error {
	s.removeHook() // waits out any in-flight Apply (write lock)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.snapMu.Lock() // a manual Snapshot may still be writing
	defer s.snapMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.wal.close()
	if s.lastCErr != nil {
		err = errors.Join(err, fmt.Errorf("persist: background compaction: %w", s.lastCErr))
	}
	if s.lastSErr != nil {
		err = errors.Join(err, fmt.Errorf("persist: background WAL sync: %w", s.lastSErr))
	}
	return err
}
