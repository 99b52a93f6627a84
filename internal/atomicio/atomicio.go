// Package atomicio provides crash-consistent file replacement: write
// to a unique temp file in the destination's directory, fsync it,
// rename it over the destination, then fsync the directory. A crash —
// a kill -9, a power cut — at any point leaves either the complete old
// file or the complete new file at the path, never a torn mix and
// never a half-written file under the final name. Every persistent
// artifact in this repository (graph binaries, engine files, the
// serving daemon's checkpoint spool) is written through it.
package atomicio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write.
// write receives a temp file in path's directory; on any error (from
// write, sync, or rename) the temp file is removed and path is left
// untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes the directory entry so the rename itself is durable.
// Platforms whose directory handles reject Sync (it is advisory there)
// degrade to a plain replace, which is still atomic on the visible
// namespace.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

// isSyncUnsupported reports errors that mean "this platform cannot
// fsync a directory handle", which WriteFile tolerates.
func isSyncUnsupported(err error) bool {
	var pe *os.PathError
	if ok := asPathError(err, &pe); ok {
		switch pe.Err.Error() {
		case "invalid argument", "operation not supported", "bad file descriptor",
			"An attempt was made to operate on an object that is not a file handle.":
			return true
		}
	}
	return false
}

func asPathError(err error, out **os.PathError) bool {
	for err != nil {
		if pe, ok := err.(*os.PathError); ok {
			*out = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
