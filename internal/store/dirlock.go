package store

// LockFileName is the advisory lock file LockDir creates inside a store
// directory. The WAL store ignores it when scanning the directory (it
// is not a segment or snapshot).
const LockFileName = ".lock"

// LockDir takes an exclusive advisory lock on dir (creating it, and the
// LockFileName file inside it, if needed) and returns the unlock. It
// fails immediately — never blocks — when another holder has the
// directory locked, whether in another process or this one: the WAL
// store is single-writer, and in the sharded deployment the lock is
// the below-the-lease line of defense that keeps a partitioned-but-
// alive ex-owner and the new lease holder from both having the same
// partition's store open. A holder killed by SIGKILL releases the lock
// with its file descriptors, so crash failover is not delayed.
//
// The lock is advisory flock(2) on platforms that have it and a no-op
// elsewhere (see dirlock_other.go) — the lease protocol above remains
// the primary guard.
func LockDir(dir string) (unlock func(), err error) {
	return lockDir(dir)
}
