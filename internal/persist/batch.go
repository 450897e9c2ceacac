package persist

import (
	"fmt"
	"strconv"

	"repro/internal/store"
	"repro/internal/txn"
)

// Batch stages writes and deletes of many persistent objects and commits
// them as one all-or-nothing store batch: on a WALStore, one record and
// one group-committed fsync for the lot, with no transaction log. The
// engine drains one evaluation round's run-state transitions into one
// Batch.
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
// ID, one store.ApplyBatch, then the locks are released. An empty batch
// commits trivially. The batch must not be reused afterwards.
func (b *Batch) Commit() error {
	if len(b.order) == 0 {
		return nil
	}
	owner := txn.ID("batch" + strconv.FormatUint(b.reg.batches.Add(1), 10))
	defer b.reg.locks.ReleaseAll(owner)
	for _, op := range b.order {
		if err := b.reg.locks.Lock(owner, string(op.ID), txn.WriteLock); err != nil {
			return fmt.Errorf("batch commit: %w", err)
		}
	}
	return store.ApplyBatch(b.reg.st, b.order)
}
