//go:build unix && !(linux && (amd64 || arm64))

package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// The store's file-system primitives where dirio_linux.go does not build:
// the same operations spelled with package os, which allocates the paths
// and file values the raw calls avoid.

// handle is an open file or directory; the zero handle is cwd.
type handle struct{ f *os.File }

// cwd resolves a name as a path.
var cwd handle

// dirFlags open a directory, and only a directory: anything else is ENOTDIR.
const dirFlags = os.O_RDONLY | syscall.O_DIRECTORY

// path is name, NUL-terminated, resolved against the directory h.
func (h handle) path(name []byte) string {
	p := cstr(name)
	if h.f == nil {
		return p
	}
	return filepath.Join(h.f.Name(), p)
}

// openAt opens name, NUL-terminated, relative to the directory at.
func openAt(at handle, name []byte, flags int, perm uint32) (handle, error) {
	f, err := os.OpenFile(at.path(name), flags, os.FileMode(perm))
	return handle{f}, err
}

// stat is the size and mtime (Unix nanoseconds) of name in the directory h.
func (h handle) stat(name []byte) (size, mtime int64, err error) {
	fi, err := os.Stat(h.path(name))
	if err != nil {
		return 0, 0, err
	}
	return fi.Size(), fi.ModTime().UnixNano(), nil
}

// unlink removes the file name from the directory h.
func (h handle) unlink(name []byte) error { return syscall.Unlink(h.path(name)) }

// rename moves the file at path from to path to, both NUL-terminated.
func rename(from, to []byte) error { return syscall.Rename(cwd.path(from), cwd.path(to)) }

// mkdir makes the directory at path, NUL-terminated.
func mkdir(path []byte, perm uint32) error { return os.Mkdir(cwd.path(path), os.FileMode(perm)) }

// stamp sets the open file's access and modification times to ns (Unix
// nanoseconds), through the path it was opened by.
func (h handle) stamp(ns int64) error {
	t := time.Unix(0, ns)
	return os.Chtimes(h.f.Name(), t, t)
}

// readNames reads the directory's next batch of names into buf, each
// followed by a NUL; an empty batch is the end. nextName walks it.
func (h handle) readNames(buf []byte) ([]byte, error) {
	names, err := h.f.Readdirnames(64)
	buf = buf[:0]
	for _, n := range names {
		buf = append(append(buf, n...), 0)
	}
	if err == io.EOF {
		err = nil
	}
	return buf, err
}

// nextName returns the first name in a batch readNames read, with its NUL,
// and the rest of the batch; nil at its end.
func nextName(batch []byte) (name, rest []byte) {
	for {
		n := bytes.IndexByte(batch, 0)
		if n < 0 {
			return nil, nil
		}
		name, batch = batch[:n+1], batch[n+1:]
		if !isDot(name[:n]) {
			return name, batch
		}
	}
}

// read reads into p; 0 bytes and no error is the end of the file.
func (h handle) read(p []byte) (int, error) {
	n, err := h.f.Read(p)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// write writes all of p.
func (h handle) write(p []byte) error {
	_, err := h.f.Write(p)
	return err
}

func (h handle) sync() error  { return h.f.Sync() }
func (h handle) close() error { return h.f.Close() }
