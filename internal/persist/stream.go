package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"kcore"
)

// This file is the streaming face of the WAL codec: the same KCOREWAL byte
// format the on-disk log uses (see wal.go), exposed record by record so it
// can travel over a network connection. internal/replicate ships the
// primary's log to followers through exactly these functions — the wire
// format of replication IS the WAL format, so the golden fixtures and the
// recovery semantics cover both.

// AppendWALHeader appends the KCOREWAL stream header (magic + version) onto
// buf. A WAL byte stream is this header followed by zero or more frames
// produced by AppendWALFrame.
func AppendWALHeader(buf []byte) []byte {
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], WALVersion)
	return append(buf, hdr[:]...)
}

// AppendWALFrame encodes one record as a WAL frame (length + CRC + payload)
// onto buf. It fails only on records the format cannot represent (unknown
// op, negative vertex, no updates).
func AppendWALFrame(buf []byte, rec kcore.AppliedBatch) ([]byte, error) {
	if len(rec.Updates) == 0 {
		return nil, fmt.Errorf("persist: WAL record with no updates")
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame prefix placeholder
	payloadStart := len(buf)
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Updates)))
	buf, err := appendUpdates(buf, rec.Updates)
	if err != nil {
		return nil, err
	}
	payload := buf[payloadStart:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// WALReader decodes a KCOREWAL byte stream record by record. It is the
// streaming core the file-recovery scan (scanWAL) and the replication
// follower share. Next returns errors in three classes:
//
//   - io.EOF: the stream ended cleanly at a record boundary (a header-only
//     stream is a valid empty WAL);
//   - io.ErrUnexpectedEOF: the stream ended inside a record or the header —
//     the torn tail a crashed append (or a cut connection) leaves behind;
//     Torn reports its size;
//   - anything else: either a malformation wrapping ErrCorruptWAL (bad
//     magic, CRC mismatch, implausible structure, sequence regression) or
//     the underlying reader's error, wrapped.
//
// After any error the reader is spent; Offset reports the byte offset just
// past the last complete, valid record (0 when the header never validated).
// The reader issues small framed reads and does not buffer: wrap the source
// in a bufio.Reader unless it already buffers.
type WALReader struct {
	r       io.Reader
	payload []byte // reused payload scratch; records get fresh Update slices
	off     int64
	torn    int64
	records uint64
	lastSeq uint64
	started bool
}

// NewWALReader returns a reader decoding the WAL byte stream r.
func NewWALReader(r io.Reader) *WALReader { return &WALReader{r: r} }

// Offset is the byte offset just past the last complete, valid record (just
// past the header when no record was read, 0 when the header never
// validated).
func (d *WALReader) Offset() int64 { return d.off }

// Torn is the size of the incomplete trailing structure, non-zero only
// after Next returned io.ErrUnexpectedEOF.
func (d *WALReader) Torn() int64 { return d.torn }

// Records is the number of valid records decoded so far.
func (d *WALReader) Records() uint64 { return d.records }

// LastSeq is the sequence number of the last valid record (0 before any).
func (d *WALReader) LastSeq() uint64 { return d.lastSeq }

// Next decodes and returns the next record. See the type comment for the
// error contract.
func (d *WALReader) Next() (kcore.AppliedBatch, error) {
	var zero kcore.AppliedBatch
	if !d.started {
		var header [walHeaderLen]byte
		n, err := io.ReadFull(d.r, header[:])
		switch {
		case err == io.EOF:
			return zero, io.EOF
		case err == io.ErrUnexpectedEOF:
			d.torn = int64(n)
			return zero, io.ErrUnexpectedEOF
		case err != nil:
			return zero, fmt.Errorf("persist: WAL read: %w", err)
		}
		if [8]byte(header[:8]) != walMagic {
			return zero, fmt.Errorf("%w: bad magic %q", ErrCorruptWAL, header[:8])
		}
		if v := binary.LittleEndian.Uint32(header[8:]); v != WALVersion {
			return zero, fmt.Errorf("%w: unsupported WAL version %d (want %d)", ErrCorruptWAL, v, WALVersion)
		}
		d.off = walHeaderLen
		d.started = true
	}
	var frame [walFrameLen]byte
	n, err := io.ReadFull(d.r, frame[:])
	if err == io.EOF {
		return zero, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		d.torn = int64(n)
		return zero, io.ErrUnexpectedEOF
	}
	if err != nil {
		return zero, fmt.Errorf("persist: WAL read: %w", err)
	}
	length := binary.LittleEndian.Uint32(frame[:4])
	sum := binary.LittleEndian.Uint32(frame[4:])
	if length == 0 || length > maxWALPayload {
		return zero, fmt.Errorf("%w: implausible record length %d at offset %d",
			ErrCorruptWAL, length, d.off)
	}
	if cap(d.payload) < int(length) {
		d.payload = make([]byte, length)
	}
	payload := d.payload[:length]
	n, err = io.ReadFull(d.r, payload)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.torn = walFrameLen + int64(n)
		return zero, io.ErrUnexpectedEOF
	}
	if err != nil {
		return zero, fmt.Errorf("persist: WAL read: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		// The record is fully present, so this is bit corruption, not a
		// torn append (torn appends shorten the stream).
		return zero, fmt.Errorf("%w: record checksum mismatch at offset %d (have %08x, recorded %08x)",
			ErrCorruptWAL, d.off, got, sum)
	}
	rec, err := decodeWALPayload(payload)
	if err != nil {
		return zero, fmt.Errorf("%w at offset %d", err, d.off)
	}
	if d.records > 0 && rec.Seq <= d.lastSeq {
		return zero, fmt.Errorf("%w: sequence regressed from %d to %d at offset %d",
			ErrCorruptWAL, d.lastSeq, rec.Seq, d.off)
	}
	d.off += walFrameLen + int64(length)
	d.records++
	d.lastSeq = rec.Seq
	return rec, nil
}
