package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"kcore"
	"kcore/internal/fault"
)

// SnapshotVersion is the current snapshot format version. Bump it — and
// regenerate the golden fixtures (see golden_test.go) — whenever the byte
// format changes.
const SnapshotVersion = 1

var snapshotMagic = [8]byte{'K', 'C', 'O', 'R', 'S', 'N', 'A', 'P'}

// snapshotHeaderLen is magic + version + heuristic/structure/reserved +
// 8 reserved bytes + seq; the varint-coded body follows.
const snapshotHeaderLen = 8 + 4 + 4 + 8 + 8

// IsSnapshot reports whether prefix begins with the snapshot magic — the
// first 8 bytes are enough to tell a KCORSNAP image apart from other
// formats (e.g. a text edge list) when a loader accepts both.
func IsSnapshot(prefix []byte) bool {
	return len(prefix) >= 8 && [8]byte(prefix[:8]) == snapshotMagic
}

// maxSnapshotDim bounds the vertex and edge counts a snapshot may claim,
// matching the engine's dense-int32 vertex ids.
const maxSnapshotDim = 1 << 31

// EncodeSnapshot serializes an IndexState into the snapshot format
// (deterministically: edges are sorted during encoding).
func EncodeSnapshot(st *kcore.IndexState) ([]byte, error) {
	if st.Vertices < 0 || st.Vertices > maxSnapshotDim || len(st.Edges) > maxSnapshotDim {
		return nil, fmt.Errorf("persist: snapshot dimensions n=%d m=%d out of range",
			st.Vertices, len(st.Edges))
	}
	if len(st.Cores) != st.Vertices || len(st.Order) != st.Vertices {
		return nil, fmt.Errorf("persist: snapshot has %d cores and %d order entries for %d vertices",
			len(st.Cores), len(st.Order), st.Vertices)
	}
	edges := make([][2]int, len(st.Edges))
	copy(edges, st.Edges)
	for i, e := range edges {
		if e[0] > e[1] {
			edges[i] = [2]int{e[1], e[0]}
		}
		// Validate the normalized (post-swap) endpoints: the minimum must be
		// non-negative and the maximum in range.
		if edges[i][0] < 0 || edges[i][1] >= st.Vertices || e[0] == e[1] {
			return nil, fmt.Errorf("persist: snapshot edge (%d,%d) invalid for %d vertices",
				e[0], e[1], st.Vertices)
		}
	}
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})

	buf := make([]byte, 0, snapshotHeaderLen+4+len(edges)*3+len(st.Cores)+len(st.Order)*2)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, SnapshotVersion)
	buf = append(buf, 0, 0, 0, 0)                  // heuristic, structure, reserved
	buf = binary.LittleEndian.AppendUint64(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint64(buf, st.Seq)
	buf = binary.AppendUvarint(buf, uint64(st.Vertices))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	prevU, prevV := 0, 0
	for i, e := range edges {
		if i > 0 && e[0] == prevU && e[1] == prevV {
			return nil, fmt.Errorf("persist: duplicate snapshot edge (%d,%d)", e[0], e[1])
		}
		buf = binary.AppendUvarint(buf, uint64(e[0]-prevU))
		if e[0] != prevU {
			buf = binary.AppendUvarint(buf, uint64(e[1]))
		} else {
			buf = binary.AppendUvarint(buf, uint64(e[1]-prevV))
		}
		prevU, prevV = e[0], e[1]
	}
	for _, c := range st.Cores {
		if c < 0 {
			return nil, fmt.Errorf("persist: negative core number %d", c)
		}
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	for _, v := range st.Order {
		if v < 0 || v >= st.Vertices {
			return nil, fmt.Errorf("persist: order entry %d outside vertex range %d", v, st.Vertices)
		}
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// DecodeSnapshot parses and CRC-verifies snapshot bytes back into an
// IndexState. Structural failures wrap ErrCorruptSnapshot. The decoded
// state is syntactically canonical (sorted unique edges, in-range values);
// semantic verification — that the cores and order actually describe the
// graph — happens in kcore.FromIndex (see ReadSnapshot).
func DecodeSnapshot(data []byte) (*kcore.IndexState, error) {
	if len(data) < snapshotHeaderLen+2+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any valid snapshot", ErrCorruptSnapshot, len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d (want %d)",
			ErrCorruptSnapshot, v, SnapshotVersion)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != trailer {
		return nil, fmt.Errorf("%w: checksum mismatch (have %08x, recorded %08x)",
			ErrCorruptSnapshot, sum, trailer)
	}
	// Byte 13 is 1 in snapshots of engines that stored their order
	// structure (the tag list); both structures restore the same state.
	if data[12] != 0 || data[13] > 1 {
		return nil, fmt.Errorf("%w: unknown heuristic %d or order structure %d",
			ErrCorruptSnapshot, data[12], data[13])
	}
	// Bytes 16–23 are reserved: older snapshots stored an engine seed
	// there, which no engine reads.
	st := &kcore.IndexState{Seq: binary.LittleEndian.Uint64(data[24:32])}
	r := bytes.NewReader(body[snapshotHeaderLen:])
	n, err := readDim(r, "vertex count")
	if err != nil {
		return nil, err
	}
	m, err := readDim(r, "edge count")
	if err != nil {
		return nil, err
	}
	// Each edge takes >= 2 bytes, each core and order entry >= 1: reject
	// size claims the remaining bytes cannot possibly back before
	// allocating.
	if uint64(r.Len()) < 2*m+2*n {
		return nil, fmt.Errorf("%w: %d bytes left cannot hold %d edges and %d vertices",
			ErrCorruptSnapshot, r.Len(), m, n)
	}
	st.Vertices = int(n)
	st.Edges = make([][2]int, m)
	prevU, prevV := 0, 0
	for i := range st.Edges {
		du, err := readDim(r, "edge delta")
		if err != nil {
			return nil, err
		}
		u := prevU + int(du)
		var v int
		dv, err := readDim(r, "edge endpoint")
		if err != nil {
			return nil, err
		}
		if du != 0 {
			v = int(dv)
		} else {
			v = prevV + int(dv)
			if i > 0 && dv == 0 {
				return nil, fmt.Errorf("%w: duplicate edge (%d,%d)", ErrCorruptSnapshot, u, v)
			}
		}
		if u >= v || v >= st.Vertices {
			return nil, fmt.Errorf("%w: edge (%d,%d) is not canonical for %d vertices",
				ErrCorruptSnapshot, u, v, st.Vertices)
		}
		st.Edges[i] = [2]int{u, v}
		prevU, prevV = u, v
	}
	st.Cores = make([]int, n)
	for i := range st.Cores {
		c, err := readDim(r, "core number")
		if err != nil {
			return nil, err
		}
		st.Cores[i] = int(c)
	}
	st.Order = make([]int, n)
	for i := range st.Order {
		v, err := readDim(r, "order entry")
		if err != nil {
			return nil, err
		}
		if v >= uint64(st.Vertices) {
			return nil, fmt.Errorf("%w: order entry %d outside vertex range %d",
				ErrCorruptSnapshot, v, st.Vertices)
		}
		st.Order[i] = int(v)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after order section", ErrCorruptSnapshot, r.Len())
	}
	return st, nil
}

// readDim reads one uvarint bounded to the snapshot dimension range.
func readDim(r *bytes.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated %s", ErrCorruptSnapshot, what)
	}
	if v > maxSnapshotDim {
		return 0, fmt.Errorf("%w: implausible %s %d", ErrCorruptSnapshot, what, v)
	}
	return v, nil
}

// ReadSnapshot decodes, CRC-verifies, and semantically verifies a snapshot,
// returning a reconstructed default engine (see kcore.NewEngine). All
// failures wrap ErrCorruptSnapshot.
func ReadSnapshot(r io.Reader) (*kcore.Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	e, _, err := decodeEngine(data)
	return e, err
}

// decodeEngine decodes snapshot bytes and reconstructs the verified engine,
// also returning the decoded state (Store recovery needs its Seq). Shared
// by ReadSnapshot and Store.Open so the corruption classification cannot
// diverge between the two recovery paths.
func decodeEngine(data []byte) (*kcore.Engine, *kcore.IndexState, error) {
	st, err := DecodeSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	e, err := kcore.FromIndex(st)
	if err != nil {
		// The bytes were well-formed but the state does not verify (e.g. a
		// forged CRC over inconsistent cores): still corruption, never a
		// silently-wrong engine.
		return nil, nil, fmt.Errorf("%w: state verification failed: %v", ErrCorruptSnapshot, err)
	}
	return e, st, nil
}

// Save atomically writes a snapshot of e's current state to path: the bytes
// go to a temp file in the same directory, are fsynced, renamed over path,
// and the directory entry is fsynced. Concurrent writers are blocked only
// during the in-memory state capture, not the file write.
func Save(path string, e *kcore.Engine) error {
	data, err := EncodeSnapshot(e.Index())
	if err != nil {
		return err
	}
	return atomicWrite(nil, path, data)
}

// atomicWrite writes data to path via temp file + fsync + rename + dir
// sync. plane (nil in production) injects faults at the "snap.*" probe
// points — see internal/fault.
func atomicWrite(plane *fault.Plane, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fault.CreateTemp(plane, "snap", dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if err := fault.Rename(plane, "snap", tmpName, path); err != nil {
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
