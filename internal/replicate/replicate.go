// Package replicate ships the engine's write-ahead log over the network:
// one primary owns writes, N followers apply the streamed batches and serve
// reads, scaling read throughput linearly with replicas while every replica
// maintains bit-identical cores and k-order: the order-based maintenance
// algorithm is deterministic for identical update sequences, and a
// follower's engine is a default engine (kcore.NewEngine, no options), as
// kcore-serve's primary engine is, so the stream carries no engine setting.
//
// # Topology and consistency model
//
// Replication is asynchronous, pull-based and diskless. A follower connects
// to the primary's GET /v1/replicate endpoint and receives one long-lived
// byte stream: a bootstrap section (optionally carrying a full KCORSNAP
// engine snapshot), then a live KCOREWAL frame stream — the exact on-disk
// WAL format (internal/persist), so replication reuses the persist codec,
// its CRC protection, its golden fixtures, and its sequence-chaining
// invariant end to end. The follower applies frames through
// persist.ApplyRecord, the same skip/chain/apply rule WAL recovery uses, so
// its local watchers see the changes. A follower keeps one engine for its
// lifetime: a later snapshot bootstrap installs into it with
// kcore.Engine.Restore, so hooks and watchers registered on it stay
// attached and receive the bootstrap's core changes. A follower engine
// carries no store and no publisher (chained replication is not
// supported), so nothing re-logs or re-publishes what it applies.
//
// Reads on a follower are eventually consistent. Read-your-primary-writes
// is NOT guaranteed; the staleness is observable as seq_lag (primary seq
// minus follower seq) in the follower's /v1/stats. Writes on a follower are
// rejected with the stable wire error code "read_only".
//
// # Catch-up, resume, and gaps
//
// A follower that reconnects asks to resume `?from=<seq>` at its last
// applied sequence number. The primary serves the resume tail from a
// bounded in-memory frame history, or — when configured with the persist
// WAL's path — from the on-disk log; when neither covers the requested
// seq, it falls back to a fresh snapshot bootstrap. The WAL chaining
// invariant makes resumption safe: the follower skips frames at or below
// its seq and refuses any frame that does not chain exactly onto it,
// forcing a clean snapshot re-bootstrap instead of silent divergence. The
// re-bootstrap may move the follower's seq back, when the primary lost
// batches it had not synced before it restarted.
//
// Sequence numbers identify positions within one primary lineage. A primary
// that is rebuilt from scratch with different data can reuse seq values;
// restart followers (they are diskless — a restart re-bootstraps) after
// replacing a primary's dataset out of band.
//
// # Backpressure
//
// The primary never blocks on a slow follower. The primary keeps one
// bounded history of encoded frames, and each follower's stream is a
// cursor into it, so the history is every follower's send window: a
// follower that falls more than the history behind is dropped (counted in
// /v1/stats, analogous to the watch stream's lagged-drop accounting) and
// reconnects — usually resuming from the WAL file, degenerating to a
// snapshot re-bootstrap only if it stayed away long enough.
package replicate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// StreamVersion is the replication bootstrap format version. Bump it — and
// regenerate the golden fixtures (see golden_test.go) — whenever the byte
// format changes. The embedded snapshot and WAL sections carry their own
// versions (persist.SnapshotVersion, persist.WALVersion).
const StreamVersion = 1

var streamMagic = [8]byte{'K', 'C', 'O', 'R', 'E', 'R', 'E', 'P'}

// streamHeaderLen is magic + version + flags.
const streamHeaderLen = 8 + 4 + 1

// flagSnapshot marks a bootstrap that carries a snapshot section.
const flagSnapshot = 0x01

// maxStreamSnapshot bounds the snapshot section a follower will accept; a
// larger claim is corruption, not a snapshot.
const maxStreamSnapshot = 1 << 30

// ErrBadStream marks a malformed replication bootstrap: wrong magic,
// unsupported version, unknown flags, or an implausible section length.
// Frame-level malformations inside the WAL section wrap
// persist.ErrCorruptWAL instead.
var ErrBadStream = errors.New("replicate: malformed replication stream")

// AppendBootstrap encodes the bootstrap section onto buf: the stream header
// and, when snapshot is non-nil, a length-prefixed KCORSNAP snapshot. The
// KCOREWAL frame stream follows it on the wire.
func AppendBootstrap(buf []byte, snapshot []byte) []byte {
	var hdr [streamHeaderLen]byte
	copy(hdr[:], streamMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], StreamVersion)
	if snapshot != nil {
		hdr[12] = flagSnapshot
	}
	buf = append(buf, hdr[:]...)
	if snapshot != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snapshot)))
		buf = append(buf, snapshot...)
	}
	return buf
}

// ReadBootstrap decodes the bootstrap section from r, returning the
// snapshot bytes (nil for a resume bootstrap without one). Errors are
// ErrBadStream for malformation, io.ErrUnexpectedEOF for a stream cut
// inside the section, or the reader's own error.
func ReadBootstrap(r io.Reader) ([]byte, error) {
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("replicate: read bootstrap header: %w", err)
	}
	if [8]byte(hdr[:8]) != streamMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadStream, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != StreamVersion {
		return nil, fmt.Errorf("%w: unsupported stream version %d (want %d)", ErrBadStream, v, StreamVersion)
	}
	flags := hdr[12]
	if flags&^byte(flagSnapshot) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#02x", ErrBadStream, flags)
	}
	if flags&flagSnapshot == 0 {
		return nil, nil
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("replicate: read snapshot length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxStreamSnapshot {
		return nil, fmt.Errorf("%w: implausible snapshot length %d", ErrBadStream, n)
	}
	snap := make([]byte, n)
	if _, err := io.ReadFull(r, snap); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("replicate: read snapshot section: %w", err)
	}
	return snap, nil
}
