// Package persist provides persistent atomic objects: typed states that
// live in an internal/store Store and are read and written under strict
// two-phase locks. They change in one of two ways. An Object changes
// through an internal/txn transaction: atomic tasks and the repository's
// multi-object updates. A Batch commits many objects as one
// all-or-nothing store batch under the same locks, with no transaction
// log: the engine's own bookkeeping (run states, timer records, metas,
// reconfiguration records).
//
// It is the analogue of Arjuna's StateManager/LockManager pair that the
// paper's execution environment builds on: "the workflow management
// system records inter-task dependencies in persistent shared objects and
// uses atomic transactions to implement notification and dataflow
// dependencies" (Section 3). The engine stores every task-instance state
// and dependency record as one of these objects, which is what makes
// crash recovery and transactional reconfiguration work.
//
// A state is stored as the bytes Encode makes of it: a versioned binary
// record for types that implement Record (the engine's run states,
// instance metas and timer records, the execution service's schedules),
// gob for any other type. Decode reads both, and reads the gob states
// that trees older than the record codec wrote for every type (see
// codec.go for the format).
package persist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/txn"
)

// ErrNoState is returned by Get when the object has no committed or
// pending state visible to the transaction.
var ErrNoState = errors.New("object has no state")

// State payload tags: a committed state image or a tombstone.
const (
	tagState     = 's'
	tagTombstone = 'd'
)

// Registry hands out the persistent objects of one store and owns their
// lock manager. All access to a given store from the engine goes through
// a single Registry so locking is coherent.
type Registry struct {
	st    store.Store
	locks *txn.LockManager
	mgr   *txn.Manager
	// batches numbers Batch commits: each locks as its own owner.
	batches atomic.Uint64

	mu   sync.Mutex
	objs map[store.ID]*Object
}

// NewRegistry returns a registry over st whose transactions come from
// mgr. A nil lock manager gets a default one.
func NewRegistry(st store.Store, mgr *txn.Manager, locks *txn.LockManager) *Registry {
	if locks == nil {
		locks = txn.NewLockManager(0)
	}
	return &Registry{st: st, locks: locks, mgr: mgr, objs: make(map[store.ID]*Object)}
}

// Store exposes the underlying store (read-only use by diagnostics).
func (r *Registry) Store() store.Store { return r.st }

// Manager returns the transaction manager.
func (r *Registry) Manager() *txn.Manager { return r.mgr }

// Object returns the persistent object with the given ID, creating the
// in-memory handle on first use. Handles are shared: two calls with the
// same ID return the same *Object.
func (r *Registry) Object(id store.ID) *Object {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok := r.objs[id]; ok {
		return o
	}
	o := &Object{reg: r, id: id, pending: make(map[txn.ID][]byte)}
	r.objs[id] = o
	return o
}

// Peek reads the committed state of the object with the given ID into v,
// without locks, transactions or a handle: Object(id).Peek(v) without
// leaving the handle behind. Recovery and read-only services use it.
func (r *Registry) Peek(id store.ID, v any) error {
	data, err := r.st.Read(id)
	if errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("peek %s: %w", id, ErrNoState)
	}
	if err != nil {
		return err
	}
	return Decode(data, v)
}

// Recover replays the write-ahead log into the store after a crash (see
// txn.Manager.Recover) and drops all volatile handles so states reload
// from disk. It returns the number of transactions rolled forward.
func (r *Registry) Recover() (int, error) {
	n, err := r.mgr.Recover(func(obj store.ID, data []byte) error {
		if len(data) > 0 && data[0] == tagTombstone {
			err := r.st.Delete(obj)
			if errors.Is(err, store.ErrNotFound) {
				return nil
			}
			return err
		}
		if len(data) > 0 && data[0] == tagState {
			return r.st.Write(obj, data[1:])
		}
		return fmt.Errorf("recover %s: malformed intention", obj)
	})
	if err != nil {
		return n, err
	}
	r.mu.Lock()
	r.objs = make(map[store.ID]*Object)
	r.mu.Unlock()
	return n, nil
}

// Object is one persistent atomic object. Uncommitted states are kept
// per-transaction and promoted through the nesting hierarchy on commit.
type Object struct {
	reg *Registry
	id  store.ID

	mu      sync.Mutex
	pending map[txn.ID][]byte // nil slice value = pending delete
}

var _ txn.NestedResource = (*Object)(nil)

// ID returns the object's store ID.
func (o *Object) ID() store.ID { return o.id }

// Get loads the object's state into v as seen by tx: the nearest pending
// state in the transaction's ancestry, else the committed state. It takes
// a read lock for the transaction family.
func (o *Object) Get(tx *txn.Txn, v any) error {
	if tx == nil {
		return o.Peek(v)
	}
	if err := o.reg.locks.Lock(tx.ID().Top(), string(o.id), txn.ReadLock); err != nil {
		return err
	}
	if err := tx.Enlist(o); err != nil {
		return err
	}
	o.mu.Lock()
	for _, anc := range tx.Ancestry() {
		if data, ok := o.pending[anc]; ok {
			o.mu.Unlock()
			if data == nil {
				return fmt.Errorf("get %s: %w", o.id, ErrNoState)
			}
			return Decode(data, v)
		}
	}
	o.mu.Unlock()
	data, err := o.reg.st.Read(o.id)
	if errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("get %s: %w", o.id, ErrNoState)
	}
	if err != nil {
		return err
	}
	return Decode(data, v)
}

// GetForUpdate loads the object's state like Get but takes the write
// lock immediately. Read-modify-write sequences should use it instead of
// Get+Set: acquiring the read lock first and upgrading deadlocks when two
// transactions both hold read locks and both want to write (resolved only
// by the lock timeout), whereas write-lock-first serialises cleanly.
func (o *Object) GetForUpdate(tx *txn.Txn, v any) error {
	if tx == nil {
		return errors.New("get for update outside transaction")
	}
	if err := o.reg.locks.Lock(tx.ID().Top(), string(o.id), txn.WriteLock); err != nil {
		return err
	}
	if err := tx.Enlist(o); err != nil {
		return err
	}
	tx.OnCompletion(func(bool) { o.reg.locks.ReleaseAll(tx.ID().Top()) })
	o.mu.Lock()
	for _, anc := range tx.Ancestry() {
		if data, ok := o.pending[anc]; ok {
			o.mu.Unlock()
			if data == nil {
				return fmt.Errorf("get %s: %w", o.id, ErrNoState)
			}
			return Decode(data, v)
		}
	}
	o.mu.Unlock()
	data, err := o.reg.st.Read(o.id)
	if errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("get %s: %w", o.id, ErrNoState)
	}
	if err != nil {
		return err
	}
	return Decode(data, v)
}

// Peek reads the committed state without locks or transactions; used by
// monitoring endpoints that tolerate stale reads.
func (o *Object) Peek(v any) error { return o.reg.Peek(o.id, v) }

// Exists reports whether the object has a state visible to tx.
func (o *Object) Exists(tx *txn.Txn) (bool, error) {
	var raw any
	err := o.Get(tx, &raw)
	if errors.Is(err, ErrNoState) {
		return false, nil
	}
	// Decode errors of arbitrary payloads into any are possible; we only
	// care about presence, so treat a successful read with failed decode
	// as existing.
	if err != nil && !errors.Is(err, txn.ErrLockTimeout) {
		return true, nil
	}
	return err == nil, err
}

// Set records v as the object's state within tx (write lock, buffered
// until commit).
func (o *Object) Set(tx *txn.Txn, v any) error {
	if tx == nil {
		return errors.New("set outside transaction")
	}
	data, err := Encode(v)
	if err != nil {
		return err
	}
	return o.put(tx, data)
}

// Delete marks the object deleted within tx.
func (o *Object) Delete(tx *txn.Txn) error {
	if tx == nil {
		return errors.New("delete outside transaction")
	}
	return o.put(tx, nil)
}

func (o *Object) put(tx *txn.Txn, data []byte) error {
	if err := o.reg.locks.Lock(tx.ID().Top(), string(o.id), txn.WriteLock); err != nil {
		return err
	}
	if err := tx.Enlist(o); err != nil {
		return err
	}
	o.mu.Lock()
	o.pending[tx.ID()] = data
	o.mu.Unlock()
	// Release this family's locks when the top-level transaction ends;
	// registering per put is idempotent enough (ReleaseAll is).
	tx.OnCompletion(func(bool) { o.reg.locks.ReleaseAll(tx.ID().Top()) })
	return nil
}

// Prepare implements txn.Resource: the pending state (or tombstone) is
// logged as an intention.
func (o *Object) Prepare(tx *txn.Txn) error {
	o.mu.Lock()
	data, ok := o.pending[tx.ID()]
	o.mu.Unlock()
	if !ok {
		return nil // read-only participant
	}
	if data == nil {
		return tx.LogIntention(o.id, []byte{tagTombstone})
	}
	return tx.LogIntention(o.id, append([]byte{tagState}, data...))
}

// Commit implements txn.Resource: the pending state becomes the durable
// committed state.
func (o *Object) Commit(tx *txn.Txn) error {
	o.mu.Lock()
	data, ok := o.pending[tx.ID()]
	if ok {
		delete(o.pending, tx.ID())
	}
	o.mu.Unlock()
	if !ok {
		return nil
	}
	if data == nil {
		err := o.reg.st.Delete(o.id)
		if errors.Is(err, store.ErrNotFound) {
			return nil
		}
		return err
	}
	return o.reg.st.Write(o.id, data)
}

// Abort implements txn.Resource: pending state is discarded.
func (o *Object) Abort(tx *txn.Txn) error {
	o.mu.Lock()
	delete(o.pending, tx.ID())
	o.mu.Unlock()
	return nil
}

// PromoteChild implements txn.NestedResource: the child's pending state
// becomes the parent's.
func (o *Object) PromoteChild(child, parent *txn.Txn) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if data, ok := o.pending[child.ID()]; ok {
		o.pending[parent.ID()] = data
		delete(o.pending, child.ID())
	}
	return nil
}
