package store

import (
	"errors"
	"io/fs"
	"os"
)

// ErrWedged marks a store that has entered fail-stop mode after a
// durability fault it cannot reason about — the canonical case is a
// failed fsync, whose post-failure page-cache state is undefined (the
// "fsyncgate" lesson: a failed fsync must never be retried as if the
// data reached disk). A wedged store refuses all further writes until
// it is reopened; reopening replays only what provably reached the
// disk. Callers detect it with errors.Is.
var ErrWedged = errors.New("store wedged after durability fault")

// ErrCorrupt marks detected mid-log corruption: a record that fails its
// checksum while fully checksummed records exist after it. Unlike a
// torn tail (a crash mid-append, which loses only an unacknowledged
// suffix), mid-log corruption sits before acknowledged writes — silent
// truncation there would drop acknowledged state, so the store refuses
// to open instead.
var ErrCorrupt = errors.New("store log corrupt")

// File is the handle surface the durable stores need from an open file.
// *os.File satisfies it; fault injectors wrap it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(size int64) error
	Name() string
}

// FileOps is the file-system seam under the WALStore. Production uses
// OSOps; the failure package provides a
// seeded fault-injecting implementation so torn writes, failed fsyncs,
// bit flips and ENOSPC can be tested deterministically.
type FileOps interface {
	// OpenFile opens name with the given flags (O_CREATE|O_WRONLY|...).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Rename renames a file (the commit point of a snapshot).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so entry creations, renames and
	// removals in it survive power loss.
	SyncDir(dir string) error
}

// OSOps is the production FileOps: the real file system.
type OSOps struct{}

var _ FileOps = OSOps{}

func (OSOps) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// CreateTemp is os.CreateTemp, kept for bench/'s model disk.
func (OSOps) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (OSOps) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSOps) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (OSOps) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSOps) Remove(name string) error { return os.Remove(name) }

func (OSOps) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSOps) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
