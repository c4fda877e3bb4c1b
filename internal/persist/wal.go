package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"kcore"
	"kcore/internal/fault"
)

// WALVersion is the current write-ahead-log format version. Bump it — and
// regenerate the golden fixtures (see golden_test.go) — whenever the byte
// format changes.
const WALVersion = 1

var walMagic = [8]byte{'K', 'C', 'O', 'R', 'E', 'W', 'A', 'L'}

// walHeaderLen is magic + version.
const walHeaderLen = 8 + 4

// walFrameLen is the per-record frame prefix: payload length + payload CRC.
const walFrameLen = 4 + 4

// maxWALPayload bounds a record's claimed payload size; anything larger is
// corruption, not a batch (the engine cannot produce multi-hundred-MiB
// single batches, and the cap keeps hostile inputs from forcing huge
// allocations).
const maxWALPayload = 1 << 28

// maxPendingBytes bounds the in-memory backlog of encoded frames whose
// write failed (see wal.pending). Past the cap the log stops deferring and
// the chain check refuses appends until a snapshot heals the gap.
const maxPendingBytes = 1 << 20

// appendUpdates encodes updates in the op-byte + uvarint-vertex form shared
// by the WAL record payload and the batch frame (see batch.go).
func appendUpdates(buf []byte, updates []kcore.Update) ([]byte, error) {
	for _, up := range updates {
		var op byte
		switch up.Op {
		case kcore.OpAdd:
			op = 0
		case kcore.OpRemove:
			op = 1
		default:
			return nil, fmt.Errorf("persist: record with unknown op %d", up.Op)
		}
		if up.U < 0 || up.V < 0 {
			return nil, fmt.Errorf("persist: record with negative vertex (%d,%d)", up.U, up.V)
		}
		buf = append(buf, op)
		buf = binary.AppendUvarint(buf, uint64(up.U))
		buf = binary.AppendUvarint(buf, uint64(up.V))
	}
	return buf, nil
}

// decodeUpdates parses count updates off payload, appending them to dst.
// Malformed input errors wrap sentinel (ErrCorruptWAL or ErrCorruptBatch).
func decodeUpdates(payload []byte, count uint64, dst []kcore.Update, sentinel error) ([]kcore.Update, []byte, error) {
	for i := uint64(0); i < count; i++ {
		if len(payload) == 0 {
			return dst, payload, fmt.Errorf("%w: truncated update %d", sentinel, i)
		}
		op := payload[0]
		payload = payload[1:]
		u, n := binary.Uvarint(payload)
		if n <= 0 || u > maxSnapshotDim {
			return dst, payload, fmt.Errorf("%w: bad vertex in update %d", sentinel, i)
		}
		payload = payload[n:]
		v, n := binary.Uvarint(payload)
		if n <= 0 || v > maxSnapshotDim {
			return dst, payload, fmt.Errorf("%w: bad vertex in update %d", sentinel, i)
		}
		payload = payload[n:]
		switch op {
		case 0:
			dst = append(dst, kcore.Add(int(u), int(v)))
		case 1:
			dst = append(dst, kcore.Remove(int(u), int(v)))
		default:
			return dst, payload, fmt.Errorf("%w: unknown op %d in update %d", sentinel, op, i)
		}
	}
	return dst, payload, nil
}

// decodeWALPayload parses one CRC-verified record payload.
func decodeWALPayload(payload []byte) (kcore.AppliedBatch, error) {
	var rec kcore.AppliedBatch
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return rec, fmt.Errorf("%w: truncated record seq", ErrCorruptWAL)
	}
	payload = payload[n:]
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return rec, fmt.Errorf("%w: truncated record count", ErrCorruptWAL)
	}
	payload = payload[n:]
	if count == 0 {
		return rec, fmt.Errorf("%w: empty record", ErrCorruptWAL)
	}
	if count > uint64(len(payload)) || count > seq {
		// Each update takes >= 3 bytes; a count beyond the payload (or the
		// claimed end seq) is structurally impossible.
		return rec, fmt.Errorf("%w: implausible update count %d", ErrCorruptWAL, count)
	}
	rec.Seq = seq
	updates, payload, err := decodeUpdates(payload, count, make([]kcore.Update, 0, count), ErrCorruptWAL)
	if err != nil {
		return rec, err
	}
	rec.Updates = updates
	if len(payload) != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes in record payload", ErrCorruptWAL, len(payload))
	}
	return rec, nil
}

// walScan is the outcome of scanning a WAL stream.
type walScan struct {
	// goodOffset is the byte offset just past the last complete, valid
	// record (or past the header when no record is valid, or 0 for a file
	// too short to hold the header).
	goodOffset int64
	// tornBytes counts bytes past goodOffset forming an incomplete tail
	// record — the prefix a crashed append leaves behind. Always 0 when
	// scanWAL returns an error.
	tornBytes int64
	// records is the number of valid records scanned.
	records uint64
	// lastSeq is the last valid record's sequence number.
	lastSeq uint64
}

// scanWAL reads a WAL byte stream, invoking fn for every complete,
// CRC-valid record in order (the decoding itself lives in WALReader; this
// wrapper adds the file-recovery bookkeeping). It enforces strictly
// increasing sequence numbers. An incomplete structure at the end of the
// stream is reported as a torn tail; every other malformation is an error
// wrapping ErrCorruptWAL. A zero-length stream is a valid empty WAL.
func scanWAL(r io.Reader, fn func(rec kcore.AppliedBatch) error) (walScan, error) {
	wr := NewWALReader(bufio.NewReaderSize(r, 1<<16))
	var res walScan
	for {
		rec, err := wr.Next()
		switch {
		case err == io.EOF:
			res.goodOffset = wr.Offset()
			return res, nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			res.goodOffset, res.tornBytes = wr.Offset(), wr.Torn()
			return res, nil
		case err != nil:
			res.goodOffset = wr.Offset()
			return res, err
		}
		if err := fn(rec); err != nil {
			// res still excludes rec: recovery must not count a record the
			// callback refused (e.g. a chain break) as good.
			return res, err
		}
		res.goodOffset = wr.Offset()
		res.records = wr.Records()
		res.lastSeq = wr.LastSeq()
	}
}

// ScanWALFile reads every valid record of the WAL at path. It reports the
// torn-tail size (bytes of an incomplete final record) without modifying
// the file; errors wrap ErrCorruptWAL for malformed content.
func ScanWALFile(path string, fn func(rec kcore.AppliedBatch) error) (records uint64, tornBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	res, err := scanWAL(f, fn)
	return res.records, res.tornBytes, err
}

// wal is the append side of the write-ahead log. It is not safe for
// concurrent use; the Store serializes access.
type wal struct {
	f      *fault.File
	path   string
	policy SyncPolicy
	every  time.Duration
	fault  *fault.Plane // nil in production; see internal/fault

	buf      []byte // frame scratch, one Write call per append
	size     int64  // current file size
	records  uint64 // records in the file
	lastSeq  uint64 // seq of the last record, including deferred ones (0 when empty)
	base     uint64 // seq the on-disk snapshot covers; an empty log chains onto it
	lastSync time.Time
	syncs    uint64
	dirty    bool // appends since the last fsync (interval-sync bookkeeping)
	failed   bool // file handle unusable (failed rollback or reopen); sealed until compactTo rebuilds the file

	// pending holds encoded frames whose write failed but whose rollback
	// succeeded — exactly the chain links the file is missing, in order.
	// They are flushed ahead of the next append, so a transient fault
	// (ENOSPC cleared, one-off EIO) converges with zero loss as soon as one
	// write lands, without waiting for a healing snapshot. Bounded by
	// maxPendingBytes; an overflow falls back to gap refusal + heal.
	pending        []byte
	pendingRecords uint64
}

// write performs one file write. Fault injection (errors, short writes,
// latency) happens inside the fault.File wrapper — a short write leaves a
// real partial frame behind for rollback to truncate away.
func (w *wal) write(b []byte) error {
	_, err := w.f.Write(b)
	return err
}

// rollback restores the file to the last good offset after a failed write;
// if the file cannot be restored the log seals itself.
func (w *wal) rollback() {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.failed = true
	} else if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.failed = true
	}
}

// chainSeq is the sequence number the next appended record must chain onto:
// the last (possibly deferred) record's seq, or the snapshot base when the
// snapshot covers everything the log holds.
func (w *wal) chainSeq() uint64 {
	if (w.records > 0 || w.pendingRecords > 0) && w.lastSeq > w.base {
		return w.lastSeq
	}
	return w.base
}

// flushPending writes the deferred frames; they precede any new record in
// the chain, so nothing may be appended while they remain unflushed.
func (w *wal) flushPending() error {
	if len(w.pending) == 0 {
		return nil
	}
	if err := w.write(w.pending); err != nil {
		w.rollback()
		return err
	}
	w.size += int64(len(w.pending))
	w.records += w.pendingRecords
	w.pending = nil
	w.pendingRecords = 0
	w.dirty = true
	return nil
}

// flushDeferred retries the deferred backlog immediately, honoring the sync
// policy on success — the bounded in-line retry path of the apply hook (see
// Options.AppendRetries). On success the log has fully caught up with the
// engine and the append that deferred is as durable as a first-try append.
func (w *wal) flushDeferred() error {
	if w.failed {
		return fmt.Errorf("persist: WAL sealed after a failed write (a snapshot will rebuild it)")
	}
	if err := w.flushPending(); err != nil {
		return fmt.Errorf("persist: WAL append retry: %w", err)
	}
	switch w.policy {
	case SyncAlways:
		return w.sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.every {
			return w.sync()
		}
	}
	return nil
}

// deferFrame retains an encoded frame whose write failed, keeping the chain
// alive for a later flushPending. Past the backlog cap (or with an unusable
// file) the frame is dropped — the chain check then refuses further appends
// and the healing snapshot re-covers everything.
func (w *wal) deferFrame(frame []byte, seq uint64) {
	if w.failed || len(w.pending)+len(frame) > maxPendingBytes {
		return
	}
	w.pending = append(w.pending, frame...)
	w.pendingRecords++
	w.lastSeq = seq
}

// errWALGap marks an append refused because the record does not chain onto
// the log's last durable sequence number — the engine has advanced past the
// log, which happens after any failed append (the HookError contract keeps
// the batch applied in memory). The record is NOT written: a gap record
// would make the whole log unreplayable, since replayWAL rejects a broken
// chain as ErrCorruptWAL. The store heals by compacting — a fresh snapshot
// captures the advanced engine state and re-covers the gap.
var errWALGap = errors.New("persist: WAL behind engine state (batch not logged; a snapshot will re-cover the gap)")

// openWAL opens (creating or validating) the WAL at path for appending.
// The file must already be consistent — the Store truncates torn tails
// during recovery before calling openWAL. base is the sequence number the
// current snapshot covers: when the log is empty, the first appended record
// must chain onto it (replayWAL starts its cursor there).
func openWAL(path string, policy SyncPolicy, every time.Duration, records uint64, lastSeq uint64, base uint64, plane *fault.Plane) (*wal, error) {
	f, err := fault.Open(plane, "wal", path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open WAL: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat WAL: %w", err)
	}
	w := &wal{f: f, path: path, policy: policy, every: every, fault: plane,
		size: st.Size(), records: records, lastSeq: lastSeq, base: base, lastSync: time.Now()}
	if w.size == 0 {
		var hdr [walHeaderLen]byte
		copy(hdr[:], walMagic[:])
		binary.LittleEndian.PutUint32(hdr[8:], WALVersion)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: write WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: sync WAL header: %w", err)
		}
		w.size = walHeaderLen
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: seek WAL: %w", err)
	}
	return w, nil
}

// append logs one batch, honoring the sync policy. The frame is written
// with a single write call so a crash can only leave a strict prefix.
//
// Three guards keep a failed append (e.g. ENOSPC) from ever corrupting the
// log. First, the chain check: a record that does not continue the last
// durable sequence — which is what a batch looks like once the engine has
// advanced past the log — is refused with errWALGap instead of being
// written; a gap record would fail replayWAL's chaining check on the next
// Open and make the directory unrecoverable. Second, rollback: a failed
// write may leave a partial frame behind, so the file is truncated back to
// the last good offset; if even that fails (or the seek back does), the
// handle is sealed until compactTo rebuilds the file through a rename.
// Third, deferral: after a clean rollback the already-encoded frame is
// retained in a bounded backlog and flushed ahead of the next append, so
// the chain stays intact and a transient fault loses nothing once writes
// land again.
func (w *wal) append(rec kcore.AppliedBatch) error {
	if w.failed {
		return fmt.Errorf("persist: WAL sealed after a failed write (a snapshot will rebuild it)")
	}
	// replayWAL's cursor starts at the snapshot seq (base), skips records the
	// snapshot covers, and ends at the last record beyond it — so the next
	// record must chain onto chainSeq. (lastSeq < base happens after a crash
	// between a compaction's snapshot rename and WAL shrink: the leftover
	// records are all covered and will be skipped.)
	if start, expected := rec.Start(), w.chainSeq(); start != expected {
		return fmt.Errorf("%w: record covering seq %d..%d cannot chain onto seq %d",
			errWALGap, start+1, rec.Seq, expected)
	}
	buf, err := AppendWALFrame(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf
	if err := w.flushPending(); err != nil {
		w.deferFrame(buf, rec.Seq)
		return fmt.Errorf("persist: WAL append (flushing deferred records): %w", err)
	}
	if err := w.write(buf); err != nil {
		w.rollback()
		w.deferFrame(buf, rec.Seq)
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	w.size += int64(len(buf))
	w.records++
	w.lastSeq = rec.Seq
	w.dirty = true
	switch w.policy {
	case SyncAlways:
		return w.sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.every {
			return w.sync()
		}
	}
	return nil
}

func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: WAL sync: %w", err)
	}
	w.syncs++
	w.lastSync = time.Now()
	w.dirty = false
	return nil
}

// compactTo drops every record with seq <= upto, retaining the rest. Fast
// path: when the whole log is covered it truncates in place; otherwise the
// surviving tail is rewritten through a temp file + rename. A sealed log
// (w.failed) always takes the rewrite path — its handle may be orphaned or
// its file may end in a partial frame, so in-place truncation cannot be
// trusted — and a successful rewrite clears the seal: the snapshot at upto
// covers everything the rebuilt log lacks, so appends may resume.
func (w *wal) compactTo(upto uint64) error {
	if out := w.fault.Check(fault.WALCompact); out.Err != nil {
		return fmt.Errorf("persist: WAL compact: %w", out.Err)
	}
	// lastSeq covers deferred frames too, so the fast path only fires when
	// the snapshot covers the entire chain, file and backlog alike.
	if !w.failed && w.lastSeq <= upto {
		if err := w.f.Truncate(walHeaderLen); err != nil {
			// A shrinking truncate that fails usually means the handle is
			// dead (EIO, closed fd): seal so nobody mistakes the log for
			// append-ready — the next compaction rebuilds it via rename,
			// which is also the only way to find out the handle still works.
			w.failed = true
			return fmt.Errorf("persist: WAL truncate: %w", err)
		}
		// Past the truncate the file has changed; a failed seek leaves the
		// write offset beyond the new end (appends would punch a zero-filled
		// hole the next scan rejects as corruption), and a failed fsync
		// leaves the on-disk state undefined. Seal either way.
		if _, err := w.f.Seek(walHeaderLen, io.SeekStart); err != nil {
			w.failed = true
			return fmt.Errorf("persist: WAL seek: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			w.failed = true
			return fmt.Errorf("persist: WAL sync: %w", err)
		}
		w.size = walHeaderLen
		w.records = 0
		w.lastSeq = 0
		w.base = upto
		w.pending = nil // all deferred frames are <= upto: the snapshot covers them
		w.pendingRecords = 0
		return nil
	}
	// Records appended after the snapshot capture must survive: rewrite the
	// tail. The old handle keeps its flushed contents; read it back via a
	// second handle from the start (a fresh open by path, so this also works
	// when the old handle is orphaned or the file ends in a partial frame —
	// the scan drops an incomplete tail as torn).
	tmp, err := fault.CreateTemp(w.fault, "wal", filepath.Dir(w.path), "wal.tmp-*")
	if err != nil {
		return fmt.Errorf("persist: WAL rewrite temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], WALVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: WAL rewrite: %w", err)
	}
	var kept uint64
	var lastSeq uint64
	size := int64(walHeaderLen)
	var buf []byte
	_, _, err = ScanWALFile(w.path, func(rec kcore.AppliedBatch) error {
		if rec.Seq <= upto {
			return nil
		}
		b, err := AppendWALFrame(buf[:0], rec)
		if err != nil {
			return err
		}
		buf = b
		if _, err := tmp.Write(b); err != nil {
			return fmt.Errorf("persist: WAL rewrite: %w", err)
		}
		size += int64(len(b))
		kept++
		lastSeq = rec.Seq
		return nil
	})
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: WAL rewrite sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: WAL rewrite close: %w", err)
	}
	if err := fault.Rename(w.fault, "wal", tmpName, w.path); err != nil {
		return fmt.Errorf("persist: WAL rewrite rename: %w", err)
	}
	syncDir(filepath.Dir(w.path))
	// The rename already replaced the file on disk: from here on, w.f points
	// at the old, unlinked inode. If the rewritten file cannot be opened for
	// appending, seal the log — appends through the stale handle would
	// report success while landing in an orphaned file, silently losing
	// acknowledged batches on the next restart.
	old := w.f
	f, err := fault.Open(w.fault, "wal", w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.failed = true
		return fmt.Errorf("persist: reopen WAL: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		w.failed = true
		return fmt.Errorf("persist: seek WAL: %w", err)
	}
	w.f = f
	_ = old.Close()
	w.size = size
	w.records = kept
	if w.pendingRecords == 0 {
		w.lastSeq = lastSeq
	}
	// else: the deferred backlog survives the rewrite — its chain extends
	// past upto (a Snapshot racing a deferred apply captures an older seq),
	// so dropping it would leave the log permanently behind the engine.
	// w.lastSeq already ends that chain; backlog frames at or below upto are
	// merely skipped at replay once flushed. Deferred frames always follow
	// every file record, so flushing after the kept tail keeps seqs ordered.
	w.base = upto
	w.failed = false
	return nil
}

// close syncs (unless SyncOff already synced implicitly) and closes the log.
func (w *wal) close() error {
	if w.failed {
		// The handle is unusable for appends, but when the seal came from a
		// failed rollback it still references the live file, whose earlier
		// valid records may sit unfsynced in the page cache — so still
		// attempt the sync (harmless on an orphaned or dead handle). Errors
		// are expected here and not reported: recovery re-derives state from
		// the snapshot plus whatever the on-disk log holds.
		_ = w.f.Sync()
		_ = w.f.Close()
		return nil
	}
	// Deferred records become durable after all if the device recovered;
	// their Apply callers already saw the failure, so errors stay silent.
	_ = w.flushPending()
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: close WAL: %w", err)
	}
	return nil
}

// errStoreClosed guards appends racing a Close (should not happen: Close
// detaches the hook first, which waits out in-flight applies).
var errStoreClosed = errors.New("persist: store is closed")
