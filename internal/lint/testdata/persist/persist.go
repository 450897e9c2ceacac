// Package persist is the lintdata stand-in for the repository's
// transactional persist layer: just enough surface for the persistorder
// and locksafe golden tests (the analyzers match receiver package and type names, so
// a stand-in with the same shape exercises the same code paths).
package persist

// Object is a typed handle on one persisted key.
type Object struct{}

// Set writes the object's value in the given transaction.
func (*Object) Set(tx, v any) error { return nil }

// Delete removes the object's value in the given transaction.
func (*Object) Delete(tx any) error { return nil }

// Batch accumulates writes for one group commit.
type Batch struct{}

// Set stages a write in the batch.
func (*Batch) Set(key string, v any) error { return nil }

// Delete stages a delete in the batch.
func (*Batch) Delete(key string) error { return nil }

// Commit applies the staged writes as one store batch.
func (*Batch) Commit() error { return nil }
