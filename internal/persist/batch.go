package persist

import (
	"fmt"

	"repro/internal/store"
	"repro/internal/txn"
)

// Batch stages writes and deletes of many persistent objects and commits
// them as a single transaction with a single two-phase-commit resource.
// Compared with one Object.Set per state change in its own transaction,
// a batch costs one decision record and — on a store with batch support
// (store.Batcher, e.g. WALStore) — one durable log append for all
// intentions plus one for all states: durability cost per commit, not
// per object. The engine drains one evaluation round's run-state
// transitions into one Batch.
//
// A Batch takes the same per-object write locks as Object.Set, so it
// serialises correctly against transactions using the Object API. It is
// not safe for concurrent use; build it on one goroutine and Commit once.
type Batch struct {
	reg   *Registry
	ops   map[store.ID]int // ID -> index in order (last staging wins)
	order []store.BatchOp
}

// NewBatch returns an empty batch over the registry's store.
func (r *Registry) NewBatch() *Batch {
	return &Batch{reg: r, ops: make(map[store.ID]int)}
}

// Len returns the number of staged objects.
func (b *Batch) Len() int { return len(b.ops) }

// Set stages v as the new state of the object with the given ID,
// replacing any earlier staging of the same ID.
func (b *Batch) Set(id store.ID, v any) error {
	data, err := Encode(v)
	if err != nil {
		return fmt.Errorf("batch set %s: %w", id, err)
	}
	b.stage(store.BatchOp{ID: id, Data: data})
	return nil
}

// Delete stages a removal of the object with the given ID.
func (b *Batch) Delete(id store.ID) {
	b.stage(store.BatchOp{ID: id, Delete: true})
}

func (b *Batch) stage(op store.BatchOp) {
	if i, ok := b.ops[op.ID]; ok {
		b.order[i] = op
		return
	}
	b.ops[op.ID] = len(b.order)
	b.order = append(b.order, op)
}

// Commit applies the whole batch atomically: write locks on every staged
// ID, one transaction, one intention per object in the write-ahead log,
// one decision. An empty batch commits trivially. The batch must not be
// reused afterwards.
func (b *Batch) Commit() error {
	if len(b.order) == 0 {
		return nil
	}
	tx := b.reg.mgr.Begin()
	top := tx.ID().Top()
	for _, op := range b.order {
		if err := b.reg.locks.Lock(top, string(op.ID), txn.WriteLock); err != nil {
			b.reg.locks.ReleaseAll(top)
			_ = tx.Abort()
			return fmt.Errorf("batch commit: %w", err)
		}
	}
	tx.OnCompletion(func(bool) { b.reg.locks.ReleaseAll(top) })
	if err := tx.Enlist((*batchResource)(b)); err != nil {
		_ = tx.Abort()
		return fmt.Errorf("batch commit: %w", err)
	}
	return tx.Commit()
}

// batchResource adapts a Batch to txn.Resource (the method set is kept
// off Batch itself so the user-facing Commit() keeps its signature).
type batchResource Batch

var _ txn.Resource = (*batchResource)(nil)

// Prepare implements txn.Resource: every staged state (or tombstone) is
// logged as an intention, tagged exactly as Object.Prepare would tag it,
// so Registry.Recover replays batched and unbatched commits identically.
func (r *batchResource) Prepare(tx *txn.Txn) error {
	for _, op := range r.order {
		var payload []byte
		if op.Delete {
			payload = []byte{tagTombstone}
		} else {
			payload = append([]byte{tagState}, op.Data...)
		}
		if err := tx.LogIntention(op.ID, payload); err != nil {
			return err
		}
	}
	return nil
}

// Commit implements txn.Resource: the staged states reach the store in
// one batch application (one fsync on a Batcher store).
func (r *batchResource) Commit(tx *txn.Txn) error {
	return store.ApplyBatch(r.reg.st, r.order)
}

// Abort implements txn.Resource: staged states are discarded.
func (r *batchResource) Abort(tx *txn.Txn) error { return nil }
