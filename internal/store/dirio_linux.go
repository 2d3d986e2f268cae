//go:build linux && (amd64 || arm64)

package store

import (
	"bytes"
	"encoding/binary"
	"syscall"
	"unsafe"
)

// The store's file-system primitives on Linux: raw system calls handed the
// dirent's own NUL-terminated name or a path built on the caller's stack,
// so no path string, *os.File, FileInfo or DirEntry reaches the heap. Every
// path-taking call is made here, its pointer converted in the call
// expression itself, and retried while a signal interrupts it.

// handle is an open file or directory: its descriptor.
type handle int

// cwd resolves a name as a path (AT_FDCWD).
const cwd handle = -0x64

// dirFlags open a directory, and only a directory: anything else is ENOTDIR.
const dirFlags = syscall.O_RDONLY | syscall.O_DIRECTORY

// errnoErr is e as an error, nil for none.
func errnoErr(e syscall.Errno) error {
	if e == 0 {
		return nil
	}
	return e
}

// openAt opens name, NUL-terminated, relative to the directory at.
func openAt(at handle, name []byte, flags int, perm uint32) (handle, error) {
	for {
		fd, _, e := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(at), uintptr(unsafe.Pointer(&name[0])),
			uintptr(flags|syscall.O_CLOEXEC), uintptr(perm), 0, 0)
		if e != syscall.EINTR {
			return handle(fd), errnoErr(e)
		}
	}
}

// stat is the size and mtime (Unix nanoseconds) of name in the directory h,
// following a symlink as os.Stat does.
func (h handle) stat(name []byte) (size, mtime int64, err error) {
	var st syscall.Stat_t
	for {
		_, _, e := syscall.Syscall6(sysFstatat, uintptr(h), uintptr(unsafe.Pointer(&name[0])),
			uintptr(unsafe.Pointer(&st)), 0, 0, 0)
		if e != syscall.EINTR {
			return st.Size, st.Mtim.Nano(), errnoErr(e)
		}
	}
}

// unlink removes the file name from the directory h.
func (h handle) unlink(name []byte) error {
	for {
		_, _, e := syscall.Syscall(syscall.SYS_UNLINKAT, uintptr(h), uintptr(unsafe.Pointer(&name[0])), 0)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// rename moves the file at path from to path to, both NUL-terminated.
func rename(from, to []byte) error {
	at := cwd
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_RENAMEAT, uintptr(at), uintptr(unsafe.Pointer(&from[0])),
			uintptr(at), uintptr(unsafe.Pointer(&to[0])), 0, 0)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// mkdir makes the directory at path, NUL-terminated.
func mkdir(path []byte, perm uint32) error {
	at := cwd
	for {
		_, _, e := syscall.Syscall(syscall.SYS_MKDIRAT, uintptr(at), uintptr(unsafe.Pointer(&path[0])), uintptr(perm))
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// stamp sets the open file's access and modification times to ns (Unix
// nanoseconds): utimensat with no path is futimens.
func (h handle) stamp(ns int64) error {
	ts := [2]syscall.Timespec{syscall.NsecToTimespec(ns), syscall.NsecToTimespec(ns)}
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_UTIMENSAT, uintptr(h), 0, uintptr(unsafe.Pointer(&ts[0])), 0, 0, 0)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// readNames reads the directory's next batch of entries into buf's
// capacity (getdents64); an empty batch is the end. nextName walks it.
func (h handle) readNames(buf []byte) ([]byte, error) {
	buf = buf[:cap(buf)]
	for {
		n, err := syscall.Getdents(int(h), buf)
		if err != syscall.EINTR {
			return buf[:max(n, 0)], err
		}
	}
}

// The fields of a linux_dirent64 record nextName reads.
const (
	direntIno    = unsafe.Offsetof(syscall.Dirent{}.Ino)
	direntReclen = unsafe.Offsetof(syscall.Dirent{}.Reclen)
	direntName   = unsafe.Offsetof(syscall.Dirent{}.Name)
)

// nextName returns the first name in a batch readNames read, with its NUL
// — the record's own bytes, ready for a system call — and the rest of the
// batch; nil at its end. "." and ".." and deleted records are skipped.
func nextName(batch []byte) (name, rest []byte) {
	for len(batch) > int(direntName) {
		reclen := int(binary.NativeEndian.Uint16(batch[direntReclen:]))
		if reclen <= int(direntName) || reclen > len(batch) {
			return nil, nil
		}
		rec := batch[direntName:reclen]
		ino := binary.NativeEndian.Uint64(batch[direntIno:])
		batch = batch[reclen:]
		n := bytes.IndexByte(rec, 0)
		if n < 0 || ino == 0 || isDot(rec[:n]) {
			continue
		}
		return rec[:n+1], batch
	}
	return nil, nil
}

// read reads into p; 0 bytes and no error is the end of the file.
func (h handle) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(h), p)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

// write writes all of p.
func (h handle) write(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(int(h), p)
		if err != nil && err != syscall.EINTR {
			return err
		}
		p = p[max(n, 0):]
	}
	return nil
}

func (h handle) sync() error  { return syscall.Fsync(int(h)) }
func (h handle) close() error { return syscall.Close(int(h)) }
