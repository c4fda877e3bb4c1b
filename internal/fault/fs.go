package fault

import (
	"io"
	"os"
	"time"
)

// File wraps an *os.File so every operation probes the plane first. The
// probe op is derived from the site the file was opened under:
// "<site>.write", "<site>.sync", "<site>.truncate". A nil plane makes the
// wrapper a plain passthrough, so production code uses File
// unconditionally.
//
// A short-write outcome transfers a prefix of the buffer before failing —
// the bytes really reach the file, producing a genuinely torn frame for
// the recovery path to handle, not just an error return.
type File struct {
	f    *os.File
	p    *Plane
	site string
}

// Open opens path (os.OpenFile semantics) wrapped for the given probe
// site. The open itself probes "<site>.open".
func Open(p *Plane, site, path string, flag int, perm os.FileMode) (*File, error) {
	if out := p.Check(Op(site + ".open")); out.Err != nil {
		return nil, out.Err
	}
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &File{f: f, p: p, site: site}, nil
}

// CreateTemp mirrors os.CreateTemp wrapped for the given probe site.
func CreateTemp(p *Plane, site, dir, pattern string) (*File, error) {
	if out := p.Check(Op(site + ".open")); out.Err != nil {
		return nil, out.Err
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &File{f: f, p: p, site: site}, nil
}

// Name reports the underlying file's name.
func (f *File) Name() string { return f.f.Name() }

// Write probes "<site>.write", honoring error, delay and short-write
// outcomes, then delegates.
func (f *File) Write(b []byte) (int, error) {
	out := f.p.Check(Op(f.site + ".write"))
	if out.Delay > 0 {
		time.Sleep(out.Delay)
	}
	if out.Err != nil {
		if out.ShortFrac > 0 && len(b) > 0 {
			n := int(out.ShortFrac * float64(len(b)))
			if n >= len(b) {
				n = len(b) - 1
			}
			wrote, werr := f.f.Write(b[:n])
			if werr != nil {
				return wrote, werr
			}
			return wrote, out.Err
		}
		return 0, out.Err
	}
	return f.f.Write(b)
}

// Sync probes "<site>.sync", then delegates.
func (f *File) Sync() error {
	out := f.p.Check(Op(f.site + ".sync"))
	if out.Delay > 0 {
		time.Sleep(out.Delay)
	}
	if out.Err != nil {
		return out.Err
	}
	return f.f.Sync()
}

// Truncate probes "<site>.truncate", then delegates.
func (f *File) Truncate(size int64) error {
	if out := f.p.Check(Op(f.site + ".truncate")); out.Err != nil {
		return out.Err
	}
	return f.f.Truncate(size)
}

// Stat delegates (no probe: metadata reads are not a fault surface here).
func (f *File) Stat() (os.FileInfo, error) { return f.f.Stat() }

// Seek delegates (no probe: seeks are in-memory bookkeeping).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

// ReadAt delegates (recovery-path reads are exercised via corruption
// fuzzing, not the fault plane).
func (f *File) ReadAt(b []byte, off int64) (int, error) {
	return f.f.ReadAt(b, off)
}

// Close delegates. Closes are not probed: a file that cannot close cannot
// be modeled without leaking the descriptor.
func (f *File) Close() error { return f.f.Close() }

// Rename probes "<site>.rename" and then performs os.Rename — the atomic
// commit point of snapshot and WAL rewrites.
func Rename(p *Plane, site, oldpath, newpath string) error {
	if out := p.Check(Op(site + ".rename")); out.Err != nil {
		return out.Err
	}
	return os.Rename(oldpath, newpath)
}

var _ io.WriteCloser = (*File)(nil)
