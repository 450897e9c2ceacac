// Package txn is the lintdata stand-in for the repository's transaction
// substrate (locksafe golden tests: a commit waits for the disk).
package txn

// Txn is one transaction.
type Txn struct{}

// Commit runs two-phase commit.
func (*Txn) Commit() error { return nil }

// Abort discards the transaction's work.
func (*Txn) Abort() error { return nil }
