package store_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/store"
)

// TestOpenRefusesSecondLiveOwner: the WAL store is single-writer, and
// Open's directory lock is the below-the-lease guard that
// keeps two stores (two processes, or two partition mounts in one) from
// both being open on the same directory.
func TestOpenRefusesSecondLiveOwner(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("directory lock is a no-op without flock")
	}
	for _, backend := range []string{"wal"} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			st, closer, err := store.Open(backend, dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Write("inst/a/meta", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := store.Open(backend, dir, false); err == nil {
				t.Fatal("second Open of a live store dir succeeded; the single-writer lock is not enforced")
			}
			closer()
			// The first owner is gone: the next open must succeed and see
			// the state (the lock file must not shadow or corrupt objects).
			st2, closer2, err := store.Open(backend, dir, false)
			if err != nil {
				t.Fatalf("reopen after close: %v", err)
			}
			defer closer2()
			if _, err := st2.Read("inst/a/meta"); err != nil {
				t.Fatalf("state lost across lock cycle: %v", err)
			}
			ids, err := st2.List("")
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if id == store.ID(store.LockFileName) {
					t.Fatalf("lock file leaked into listing: %v", ids)
				}
			}
		})
	}
}

// TestLockDirReleaseIdempotent: unlock twice is safe (Open's closers
// may be invoked defensively).
func TestLockDirReleaseIdempotent(t *testing.T) {
	dir := t.TempDir()
	unlock, err := store.LockDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	unlock()
	unlock()
	unlock2, err := store.LockDir(dir)
	if err != nil {
		t.Fatalf("relock after release: %v", err)
	}
	unlock2()
}

// TestOpenMemUnlocked: the volatile backend takes no directory lock.
func TestOpenMemUnlocked(t *testing.T) {
	if _, closer, err := store.Open("mem", "", true); err != nil {
		t.Fatal(err)
	} else {
		closer()
	}
	if _, _, err := store.Open("bogus", "", true); err == nil || errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unknown backend error wrong: %v", err)
	}
}
