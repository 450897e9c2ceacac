// Package store provides the persistent object store underlying the
// workflow system's "persistent shared objects" (Section 3): the place
// where inter-task dependency state, transaction intentions and service
// metadata are recorded so that they survive processor crashes.
//
// Two implementations are provided: a log-structured store with group
// commit (WALStore: segment files, coalesced fsyncs, snapshot
// compaction), and an in-memory store for tests and volatile runs.
// Both apply a batch all-or-nothing, which is what lets persist commit
// the engine's bookkeeping without a transaction log of its own.
package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// ID identifies an object in a store. IDs are slash-separated paths; the
// prefix conventions ("runs/<instance>/...", "txlog/<tx>/...") are chosen
// by the packages above.
type ID string

// ErrNotFound is returned when reading or deleting a missing object.
var ErrNotFound = errors.New("object not found")

// Store is a durable map from IDs to opaque byte states. Implementations
// must be safe for concurrent use. Write must be atomic: a crashed writer
// leaves either the old or the new state, never a torn one.
type Store interface {
	// Read returns the current state of the object.
	Read(id ID) ([]byte, error)
	// Write atomically replaces (or creates) the object's state.
	Write(id ID, data []byte) error
	// Delete removes the object. Deleting a missing object returns
	// ErrNotFound.
	Delete(id ID) error
	// List returns the IDs with the given prefix, in lexical order.
	List(prefix ID) ([]ID, error)
}

// BatchOp is one element of a batch application: a put of Data under ID,
// or (Delete true) a removal of ID.
type BatchOp struct {
	ID     ID
	Data   []byte
	Delete bool
}

// Batcher is an optional Store capability: applying many puts and
// deletes with one durability round trip (WALStore appends the whole
// batch as one record and fsyncs once). A batch is all-or-nothing: ops
// apply in order, and a crash or a failed apply leaves the state of
// before the batch or of after it, never a prefix. Deleting a missing
// object within a batch is not an error.
type Batcher interface {
	ApplyBatch(ops []BatchOp) error
}

// LazyBatcher is an optional Store capability for best-effort batch
// application: the ops are applied and will become durable eventually
// (on WALStore, with the next synced append), but no fsync is paid up
// front. Callers must tolerate the batch being lost in a crash — the
// transaction log cleanup is the intended user (leftover entries are
// replayed idempotently by recovery).
type LazyBatcher interface {
	ApplyBatchLazy(ops []BatchOp) error
}

// ApplyBatchBestEffort applies ops with the cheapest available
// discipline: LazyBatcher when present, else the regular ApplyBatch
// path. For cleanup whose loss is harmless.
func ApplyBatchBestEffort(st Store, ops []BatchOp) error {
	if lb, ok := st.(LazyBatcher); ok {
		return lb.ApplyBatchLazy(ops)
	}
	return ApplyBatch(st, ops)
}

// ApplyBatch applies ops all-or-nothing through the store's Batcher, or
// a MemStore's single lock hold. Any other store is a volatile wrapper
// (a test or measurement seam) and gets the ops one by one with
// Write/Delete (missing deletes ignored, matching Batcher semantics).
func ApplyBatch(st Store, ops []BatchOp) error {
	switch b := st.(type) {
	case Batcher:
		return b.ApplyBatch(ops)
	case *MemStore:
		return b.applyBatch(ops)
	}
	for _, op := range ops {
		if op.Delete {
			if err := st.Delete(op.ID); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
			continue
		}
		if err := st.Write(op.ID, op.Data); err != nil {
			return err
		}
	}
	return nil
}

// Open opens the named store backend: "mem" (volatile) or "wal"
// (group-commit log, WALStore). dir hosts the WAL; sync controls fsync.
// The returned closer is never nil. It backs cmd/wfexec's -store flag,
// cmd/wfrepo and the benchmark harness, so all select backends
// identically.
//
// The WAL is opened under an exclusive directory lock (LockDir): it is
// single-writer, so a second live opener — another process, or another
// partition mount in this one — is refused instead of silently
// corrupting the state. The closer releases the lock. A directory that
// holds data of the retired shadow-file store is refused too: the WAL
// would see it as empty, and recovery would drop everything in it.
func Open(backend, dir string, sync bool) (Store, func(), error) {
	switch backend {
	case "mem":
		return NewMemStore(), func() {}, nil
	case "wal":
		unlock, err := LockDir(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := checkWALLayout(dir); err != nil {
			unlock()
			return nil, nil, err
		}
		ws, err := NewWALStore(dir)
		if err != nil {
			unlock()
			return nil, nil, err
		}
		ws.SetSync(sync)
		return ws, func() { _ = ws.Close(); unlock() }, nil
	default:
		return nil, nil, fmt.Errorf("unknown store backend %q (want wal or mem)", backend)
	}
}

// checkWALLayout refuses a directory holding shadow-file data and no WAL.
func checkWALLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var shadow []string
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasPrefix(name, walSegPrefix), strings.HasPrefix(name, walSnapPrefix):
			return nil
		case name == "inst", name == "txlog", name == "txdecision":
			shadow = append(shadow, name+"/")
		}
	}
	if len(shadow) > 0 {
		return fmt.Errorf("state dir %s holds shadow-file store data (%s) and no WAL segment; "+
			"this tree reads only the WAL format: use a fresh directory", dir, strings.Join(shadow, ", "))
	}
	return nil
}

// MemStore is an in-memory Store. The zero value is ready to use.
type MemStore struct {
	mu sync.RWMutex
	m  map[ID][]byte

	// failEvery, when positive, makes every failEvery-th Write fail; used
	// by fault-injection tests.
	failEvery int
	writes    int
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// FailEvery makes every n-th Write return an error (n <= 0 disables);
// it exists for fault-injection tests.
func (s *MemStore) FailEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failEvery = n
	s.writes = 0
}

// Read implements Store.
func (s *MemStore) Read(id ID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[id]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", id, ErrNotFound)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Write implements Store.
func (s *MemStore) Write(id ID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failEvery > 0 {
		s.writes++
		if s.writes%s.failEvery == 0 {
			return fmt.Errorf("write %s: injected store failure", id)
		}
	}
	if s.m == nil {
		s.m = make(map[ID][]byte)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[id] = cp
	return nil
}

// applyBatch applies ops under one lock hold. A batch whose puts would
// hit the FailEvery injection applies nothing.
func (s *MemStore) applyBatch(ops []BatchOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		if s.failEvery > 0 && !op.Delete {
			if s.writes++; s.writes%s.failEvery == 0 {
				return fmt.Errorf("apply batch at %s: injected store failure", op.ID)
			}
		}
	}
	if s.m == nil {
		s.m = make(map[ID][]byte)
	}
	for _, op := range ops {
		if op.Delete {
			delete(s.m, op.ID)
			continue
		}
		s.m[op.ID] = append([]byte(nil), op.Data...)
	}
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		return fmt.Errorf("delete %s: %w", id, ErrNotFound)
	}
	delete(s.m, id)
	return nil
}

// List implements Store.
func (s *MemStore) List(prefix ID) ([]ID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ID
	for id := range s.m {
		if strings.HasPrefix(string(id), string(prefix)) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Len returns the number of stored objects (diagnostics and tests).
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
