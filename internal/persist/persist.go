// Package persist gives a kcore.Engine crash-safe durability: a versioned
// binary snapshot format plus a write-ahead log (WAL) of applied batches,
// managed together by a Store so that a process restart — clean or not —
// reconstructs the engine bit-identically: same core numbers, same
// maintained k-order, same update sequence number.
//
// # Why snapshot + WAL suffices
//
// The order-based maintenance engine is deterministic and runs one
// configuration: every engine a Store recovers is a default engine
// (kcore.NewEngine, no options), and Options.Init should build one too. Its
// complete state is then a function of (a) a captured index state — edge
// set, core numbers, and the maintained k-order — and (b) the ordered
// stream of update batches applied since. The snapshot captures (a); the
// WAL records (b), one record per applied batch holding the surviving
// (post-coalescing) updates and the resulting sequence number (a
// kcore.AppliedBatch). Nothing else needs recording: an engine option that
// changes the k-order (kcore.WithRebuildThreshold) would be a third input
// that neither file carries, which is why the Store takes none. Recovery
// loads the snapshot, applies WAL records in order through ApplyRecord
// (plain kcore.Engine.Apply, before the store adds its hook, so nothing is
// re-logged), and resumes. See PAPER.md / the package kcore doc for the
// engine background.
//
// # Snapshot format (version 1, little endian)
//
//	magic     [8]byte  "KCORSNAP"
//	version   uint32   1
//	heuristic uint8    0 (the engine runs one k-order heuristic)
//	structure uint8    0; 1 is also accepted (older engines stored the
//	                   order structure; both give identical results)
//	reserved  uint16   0
//	reserved  uint64   0; ignored on read (older engines stored a seed
//	                   here that no engine uses)
//	seq       uint64   update sequence number of the captured state
//	n         uvarint  vertices
//	m         uvarint  edges
//	edges     ...      m edges, sorted (u < v, lexicographic), delta coded:
//	                   uvarint(u - prevU), then uvarint(v) when u advanced
//	                   or uvarint(v - prevV) when u repeated
//	cores     ...      n uvarints, core number per vertex
//	order     ...      n uvarints, the maintained k-order front to back
//	crc32     uint32   IEEE CRC-32 of every preceding byte
//
// Snapshots are written atomically (temp file + rename + directory sync)
// from an Engine.Index capture, so writers are blocked only for the
// O(m + n) in-memory capture, never for the file write. Loading verifies
// the CRC and then the state itself (korder.Restore's O(m + n)
// certification), so a load that succeeds can never install
// silently-wrong state; every structural failure wraps ErrCorruptSnapshot.
//
// # WAL format (version 1, little endian)
//
//	magic   [8]byte  "KCOREWAL"
//	version uint32   1
//	records, each:
//	  length uint32   payload byte length
//	  crc32  uint32   IEEE CRC-32 of the payload
//	  payload:
//	    seq    uvarint  engine sequence number AFTER the batch
//	    count  uvarint  number of updates (== sequence increments)
//	    count × { op uint8 (0 add, 1 remove); u uvarint; v uvarint }
//
// Each record is appended with a single write call when a batch commits
// (via kcore.Engine.AddApplyHook, under the engine's write lock, so record
// order equals apply order). Sync policy is configurable: SyncAlways
// fsyncs per record, SyncInterval groups fsyncs, SyncOff leaves flushing
// to the OS.
//
// Recovery distinguishes two failure shapes. An incomplete record at the end
// of the file — the prefix a crashed append leaves behind — is a torn tail:
// it is truncated away and recovery proceeds (Stats.TornBytes reports it).
// Everything else — bad magic, a checksum mismatch on a fully present
// record, non-monotone sequence numbers, a sequence gap, or a record whose
// updates do not apply — is corruption and fails recovery with
// ErrCorruptWAL rather than guessing.
//
// # Compaction
//
// The WAL grows without bound until a compaction rolls it into a fresh
// snapshot: capture, atomic snapshot replace, then drop WAL records already
// covered by the new snapshot's sequence number. A Store compacts
// automatically past Options.CompactBytes (in a background goroutine — never
// on the apply path) and on demand via Store.Snapshot. Crash safety needs no
// coordination beyond the sequence numbers: replay skips WAL records at or
// below the snapshot's seq, so dying between the snapshot rename and the WAL
// shrink merely replays less.
//
// # Append failures
//
// A WAL append that fails (e.g. ENOSPC) surfaces to the Apply caller as a
// *kcore.HookError while the batch stays applied in memory — so the engine
// advances past the log. When the file could be rolled back cleanly, the
// already-encoded record is retained in a bounded in-memory backlog and
// flushed ahead of the next append: the chain stays intact and a transient
// fault loses nothing once writes land again, even under sustained traffic.
// When the log cannot defer (unusable handle, backlog overflow), it refuses
// subsequent appends instead of writing a record with a sequence gap (a gap
// would fail replay's chaining check and make the directory unrecoverable),
// and compaction heals it: a fresh snapshot captures the advanced engine
// state, re-covers the gap, and rebuilds the log file, after which appends
// resume. The healing compaction is scheduled immediately when background
// compaction is enabled; calling Store.Snapshot heals on demand. Batches
// applied while the log was behind are durable through the snapshot, not
// the WAL.
package persist

import (
	"errors"
	"time"

	"kcore"
	"kcore/internal/fault"
)

// Structural corruption sentinels. Every snapshot- or WAL-shaped failure
// (bad magic, checksum mismatch, truncation mid-structure, implausible
// sizes, state that fails verification, updates that do not apply) wraps
// one of these, so callers branch with errors.Is.
var (
	// ErrCorruptSnapshot marks an unreadable or unverifiable snapshot.
	ErrCorruptSnapshot = errors.New("persist: corrupt snapshot")
	// ErrCorruptWAL marks an unreadable or inconsistent write-ahead log
	// (torn tails are NOT corruption; they are truncated silently).
	ErrCorruptWAL = errors.New("persist: corrupt write-ahead log")
)

// ErrCompaction marks a Store.Snapshot whose snapshot file was durably
// written but whose WAL compaction step failed: the returned SnapshotInfo
// is valid, the directory recovers correctly (replay skips the records the
// snapshot covers), and the log keeps accepting appends — it merely kept
// its pre-compaction size. Callers should treat it as partial success, not
// re-trigger the snapshot. When the compaction failure leaves the log
// unable to accept appends (still sealed or still behind the engine), the
// error is NOT wrapped with ErrCompaction: that snapshot did not heal.
var ErrCompaction = errors.New("persist: WAL compaction failed")

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs at most once per Options.SyncEvery:
	// batches are written immediately but group their durability barrier,
	// piggybacked on appends with a background timer covering idle tails
	// (a lone batch followed by silence is still synced within about one
	// period). An OS crash can lose roughly SyncEvery of acknowledged
	// batches; a process crash loses nothing.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every record: an acknowledged batch survives
	// even an OS crash, at the cost of one fsync per Apply.
	SyncAlways
	// SyncOff never fsyncs on the append path (only on Close and
	// compaction). Records still reach the file with one write call per
	// batch, so a process crash loses nothing; an OS crash may lose any
	// unflushed suffix — replay truncates the torn tail and resumes.
	SyncOff
)

// String names the policy (flag-friendly: "interval", "always", "off").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	case SyncInterval:
		return "interval"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy parses a policy name as printed by String.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, errors.New("persist: sync policy must be always, interval or off")
}

// Options configures a Store. The zero value is usable: interval fsync
// every 100ms, 64 MiB compaction threshold.
type Options struct {
	// Sync is the WAL fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// CompactBytes triggers automatic compaction when the WAL exceeds this
	// size. A compaction is also scheduled after a failed WAL append, since
	// the fresh snapshot re-covers the un-logged batch and heals the log. 0
	// selects the default 64 MiB; negative disables all background
	// compaction, size- and heal-triggered (Store.Snapshot still compacts —
	// and heals — on demand).
	CompactBytes int64
	// Init, when non-nil, builds the initial engine for a directory that
	// holds no prior state (no snapshot, no WAL records) — e.g. preloading
	// an edge list. Its engine is snapshotted immediately so the seed state
	// is durable before Open returns. Ignored when prior state exists.
	// Build it without options (kcore.NewEngine, kcore.FromEdges, ...):
	// recovery replays the WAL into a default engine, which reproduces the
	// logged k-order only if the logging engine was a default one too (see
	// kcore.WithRebuildThreshold).
	Init func() (*kcore.Engine, error)
	// Fault, when non-nil, injects faults into the store's file operations
	// (WAL writes/fsyncs/truncates/compaction, snapshot writes/renames) —
	// see internal/fault. Production stores leave it nil.
	Fault *fault.Plane
	// AppendRetries bounds the in-line retries of a transiently failed WAL
	// append: after a failed write whose frame was deferred cleanly, the
	// apply hook sleeps a short jittered backoff (RetryBackoff envelope)
	// and re-flushes, so a blip (one-off EIO, ENOSPC that clears) never
	// surfaces to the Apply caller at all. The retries run under the
	// engine's write lock, so the bound keeps worst-case added latency to a
	// few milliseconds. 0 selects the default of 2; negative disables
	// in-line retries (the deferred backlog still heals on the next
	// append).
	AppendRetries int
	// RetryBackoff is the minimum backoff before the first append retry
	// (default 500µs); each retry doubles it, jittered, capped at 8×.
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 64 << 20
	}
	if o.AppendRetries == 0 {
		o.AppendRetries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 500 * time.Microsecond
	}
	return o
}

// Stats reports a Store's durability counters. Recovered* and TornBytes
// describe the Open-time recovery; the rest track the running store.
type Stats struct {
	// SnapshotSeq is the sequence number of the current on-disk snapshot.
	SnapshotSeq uint64
	// SnapshotBytes is the current snapshot's size.
	SnapshotBytes int64
	// WALRecords and WALBytes describe the current WAL file (records since
	// the last compaction; bytes include the file header).
	WALRecords uint64
	WALBytes   int64
	// Appends counts batches logged over the store's lifetime.
	Appends uint64
	// AppendRetrySaves counts appends that failed transiently and then
	// succeeded within the bounded in-line retry (Options.AppendRetries):
	// faults the Apply caller never saw.
	AppendRetrySaves uint64
	// Syncs counts fsyncs issued by the WAL append path.
	Syncs uint64
	// Compactions counts snapshots written (Open's initial snapshot,
	// automatic compactions, and Store.Snapshot calls).
	Compactions uint64
	// CompactErrors counts failed background compactions; SyncErrors counts
	// failed background interval fsyncs (durability exposure for batches that
	// were already acknowledged). The last error of each is also returned by
	// Close.
	CompactErrors uint64
	SyncErrors    uint64
	// RecoveredRecords is the number of WAL records replayed at Open;
	// RecoveredSeq is the engine sequence number recovery ended at.
	RecoveredRecords uint64
	RecoveredSeq     uint64
	// TornBytes is the size of the torn WAL tail truncated at Open (0 for a
	// clean shutdown).
	TornBytes int64
}
