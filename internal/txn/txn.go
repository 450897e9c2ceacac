// Package txn implements the atomic transaction substrate of the workflow
// system: nested transactions, two-phase commit over enlisted resources,
// strict two-phase locking, and write-ahead intention logging with
// recovery.
//
// It stands in for the paper's CORBA Object Transaction Service
// (OTSArjuna): the execution environment "records inter-task dependencies
// in persistent shared objects and uses atomic transactions to implement
// notification and dataflow dependencies" (Section 3). The observable
// semantics the engine relies on — atomic multi-object updates, abort
// means no effect, recovery replays decided transactions — are provided
// here on top of an internal/store Store.
//
// Transactions serve what needs more than one all-or-nothing store
// batch: atomic tasks (the engine hands each its own transaction), the
// repository service's multi-object updates, and Manager.Recover rolling
// forward the decided transactions a crash left in the log, including
// the drain commits of older trees. The engine's own bookkeeping commits
// through persist.Batch, straight to the store, without a log.
package txn

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// ID identifies a transaction. Nested transactions extend their parent's
// ID with a dot-separated suffix, so the top-level ancestor is always the
// first segment.
type ID string

// Top returns the ID of the top-level ancestor.
func (id ID) Top() ID {
	if i := strings.IndexByte(string(id), '.'); i >= 0 {
		return id[:i]
	}
	return id
}

// Status is the lifecycle state of a transaction.
type Status int

// Transaction states.
const (
	// Active transactions accept work.
	Active Status = iota + 1
	// Preparing transactions are mid two-phase commit.
	Preparing
	// Committed is terminal.
	Committed
	// Aborted is terminal.
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Preparing:
		return "preparing"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return "status(" + strconv.Itoa(int(s)) + ")"
	}
}

// Resource is a participant in two-phase commit. Prepare must persist
// intentions (via Txn.LogIntention) and vote by returning nil; Commit and
// Abort complete or discard the work. All three receive the committing
// transaction.
type Resource interface {
	Prepare(tx *Txn) error
	Commit(tx *Txn) error
	Abort(tx *Txn) error
}

// NestedResource is implemented by resources that support nested
// transactions: on child commit the child's effects are promoted into the
// parent rather than made durable.
type NestedResource interface {
	Resource
	PromoteChild(child, parent *Txn) error
}

// ErrNotActive is returned when committing or aborting a finished
// transaction, or enlisting work in one.
var ErrNotActive = errors.New("transaction is not active")

// Manager creates transactions and owns the decision log used for
// recovery.
type Manager struct {
	log store.Store
	seq atomic.Uint64

	// wedged is set after a phase-2 failure left a decided transaction's
	// intentions in the log. New decisions must then be refused: if a
	// later transaction re-wrote one of those objects and committed, the
	// next Recover would re-apply the stale retained intention over the
	// newer committed state. Fail-stop until a restart replays the log.
	wedged atomic.Pointer[error]

	mu     sync.Mutex
	active map[ID]*Txn
}

// ErrWedged is returned by Commit after an earlier transaction's
// phase-2 failure: its intentions are retained for recovery, and
// accepting new decisions over them would risk rolling committed state
// back. Restart and Recover to clear it.
var ErrWedged = errors.New("transaction manager wedged by an unfinished decided transaction; restart and recover")

// Err returns the error that wedged the manager, if any (diagnostics).
func (m *Manager) Err() error {
	if p := m.wedged.Load(); p != nil {
		return *p
	}
	return nil
}

// NewManager returns a manager whose write-ahead decision log lives in
// log. Use the same log store across restarts to enable Recover.
func NewManager(log store.Store) *Manager {
	return &Manager{log: log, active: make(map[ID]*Txn)}
}

// Begin starts a new top-level transaction.
func (m *Manager) Begin() *Txn {
	id := ID(fmt.Sprintf("tx%d", m.seq.Add(1)))
	t := &Txn{mgr: m, id: id, status: Active}
	m.mu.Lock()
	m.active[id] = t
	m.mu.Unlock()
	return t
}

// Active returns the number of in-flight transactions (diagnostics).
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

func (m *Manager) finish(t *Txn) {
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
}

// Txn is a transaction: either top-level or nested. A Txn and its
// sub-transactions must be used from the same goroutine or externally
// synchronised, matching the paper's per-activity transaction usage.
type Txn struct {
	mgr    *Manager
	id     ID
	parent *Txn

	mu        sync.Mutex
	status    Status
	resources []Resource
	children  uint64
	// staged holds the intentions recorded during Prepare; they reach the
	// log together with the decision record at the decision point, so a
	// log store with batch support (store.Batcher) makes the whole
	// prepare-and-decide durable with a single fsync.
	staged []stagedIntention
	// intentionKeys tracks the log entries written at the decision point;
	// used to clean up the log after completion.
	intentionKeys []store.ID
	// completions run after top-level commit/abort (lock release etc.).
	completions []func(committed bool)
}

// stagedIntention is one buffered write-ahead-log entry.
type stagedIntention struct {
	key  store.ID
	data []byte
}

// ID returns the transaction's identifier.
func (t *Txn) ID() ID { return t.id }

// Parent returns the enclosing transaction, or nil at top level.
func (t *Txn) Parent() *Txn { return t.parent }

// Status returns the current lifecycle state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Ancestry returns the IDs from this transaction up to the top-level
// ancestor, nearest first.
func (t *Txn) Ancestry() []ID {
	var out []ID
	for x := t; x != nil; x = x.parent {
		out = append(out, x.id)
	}
	return out
}

// Begin starts a nested transaction.
func (t *Txn) Begin() *Txn {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.children++
	id := ID(fmt.Sprintf("%s.%d", t.id, t.children))
	return &Txn{mgr: t.mgr, id: id, parent: t, status: Active}
}

// Enlist registers a resource with the transaction. A resource enlisted
// more than once participates once.
func (t *Txn) Enlist(r Resource) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != Active {
		return fmt.Errorf("enlist in %s: %w", t.id, ErrNotActive)
	}
	for _, have := range t.resources {
		if have == r {
			return nil
		}
	}
	t.resources = append(t.resources, r)
	return nil
}

// OnCompletion registers f to run after the top-level outcome is decided
// (true = committed). For nested transactions the hook is promoted to the
// parent on commit and runs (false) immediately on abort.
func (t *Txn) OnCompletion(f func(committed bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.completions = append(t.completions, f)
}

// decisionKey is the durable commit record for a top-level transaction.
func decisionKey(id ID) store.ID {
	return store.ID("txdecision/" + string(id))
}

// intentionKey names one logged intention of a transaction. The target
// object ID is query-escaped into the final path segment.
func intentionKey(id ID, obj store.ID) store.ID {
	return store.ID("txlog/" + string(id) + "/" + url.QueryEscape(string(obj)))
}

// LogIntention records "object obj shall have state data" in the
// write-ahead log. Resources call this from Prepare. Intentions are
// staged in memory and written at the decision point, strictly before
// (or in the same durable batch as, but ahead of) the decision record:
// once the decision is durable the intentions are guaranteed to be
// applied even across a crash (see Recover), and a crash earlier leaves
// at most orphan intentions with no decision, which recovery discards.
func (t *Txn) LogIntention(obj store.ID, data []byte) error {
	if t.parent != nil {
		return errors.New("log intention: only top-level transactions prepare")
	}
	t.mu.Lock()
	t.staged = append(t.staged, stagedIntention{key: intentionKey(t.id, obj), data: data})
	t.mu.Unlock()
	return nil
}

// logDecision makes the staged intentions and the commit decision
// durable. With a batching log store this is one append + one fsync for
// the whole transaction; otherwise the intentions are written first and
// the decision last, exactly the order recovery depends on (append order
// is preserved, so a torn write can lose the decision but never an
// intention the decision needs).
func (t *Txn) logDecision() error {
	t.mu.Lock()
	staged := t.staged
	t.staged = nil
	keys := make([]store.ID, 0, len(staged))
	for _, si := range staged {
		keys = append(keys, si.key)
	}
	// Registered before the write so cleanupLog covers partial failures.
	t.intentionKeys = keys
	t.mu.Unlock()
	ops := make([]store.BatchOp, 0, len(staged)+1)
	for _, si := range staged {
		ops = append(ops, store.BatchOp{ID: si.key, Data: si.data})
	}
	ops = append(ops, store.BatchOp{ID: decisionKey(t.id), Data: []byte("commit")})
	if err := store.ApplyBatch(t.mgr.log, ops); err != nil {
		return fmt.Errorf("log decision %s: %w", t.id, err)
	}
	return nil
}

// Commit completes the transaction. Nested commit promotes effects to the
// parent; top-level commit runs two-phase commit: prepare all resources
// (intentions reach the log), durably record the decision, then commit
// resources and clean the log. Any prepare failure aborts everything.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.status != Active {
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("commit %s (%s): %w", t.id, st, ErrNotActive)
	}
	t.status = Preparing
	resources := append([]Resource(nil), t.resources...)
	t.mu.Unlock()

	if t.parent != nil {
		return t.commitNested(resources)
	}

	// Phase 1: prepare.
	for i, r := range resources {
		if err := r.Prepare(t); err != nil {
			t.abortFrom(resources, i+1, true)
			return fmt.Errorf("prepare %s: %w", t.id, err)
		}
	}
	// Decision point. A wedged manager must not decide new transactions
	// (see Manager.wedged).
	if t.mgr.wedged.Load() != nil {
		t.abortFrom(resources, len(resources), true)
		return fmt.Errorf("commit %s: %w", t.id, ErrWedged)
	}
	if err := t.logDecision(); err != nil {
		t.abortFrom(resources, len(resources), true)
		return err
	}
	// Phase 2: commit. Failures here are reported but the transaction is
	// decided; recovery will re-apply logged intentions.
	var firstErr error
	for _, r := range resources {
		if err := r.Commit(t); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("commit phase 2 of %s: %w", t.id, err)
		}
	}
	// The log may only be cleaned once every effect is durable: after a
	// phase-2 failure the decision and intentions must survive so the
	// next Recover rolls the transaction forward — and the manager wedges
	// so no later decision can commit state the retained intentions would
	// roll back at recovery.
	if firstErr == nil {
		t.cleanupLog()
	} else {
		t.mgr.wedged.CompareAndSwap(nil, &firstErr)
	}
	t.setStatus(Committed)
	t.mgr.finish(t)
	t.runCompletions(true)
	return firstErr
}

func (t *Txn) commitNested(resources []Resource) error {
	parent := t.parent
	for _, r := range resources {
		if nr, ok := r.(NestedResource); ok {
			if err := nr.PromoteChild(t, parent); err != nil {
				t.abortFrom(resources, len(resources), false)
				return fmt.Errorf("promote %s into %s: %w", t.id, parent.id, err)
			}
		}
		if err := parent.Enlist(r); err != nil {
			return err
		}
	}
	// Promote completion hooks.
	t.mu.Lock()
	hooks := t.completions
	t.completions = nil
	t.mu.Unlock()
	for _, h := range hooks {
		parent.OnCompletion(h)
	}
	t.setStatus(Committed)
	return nil
}

// Abort rolls the transaction back.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.status != Active && t.status != Preparing {
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("abort %s (%s): %w", t.id, st, ErrNotActive)
	}
	resources := append([]Resource(nil), t.resources...)
	t.mu.Unlock()
	t.abortFrom(resources, len(resources), t.parent == nil)
	return nil
}

// abortFrom aborts the first n resources (those that saw Prepare or were
// enlisted), cleans the log, and finalises state.
func (t *Txn) abortFrom(resources []Resource, n int, topLevel bool) {
	if n > len(resources) {
		n = len(resources)
	}
	for _, r := range resources[:n] {
		_ = r.Abort(t) // abort is best effort; resources must be idempotent
	}
	if topLevel {
		t.cleanupLog()
		t.mgr.finish(t)
	}
	t.setStatus(Aborted)
	t.runCompletions(false)
}

func (t *Txn) cleanupLog() {
	t.mu.Lock()
	keys := t.intentionKeys
	t.intentionKeys = nil
	t.staged = nil
	t.mu.Unlock()
	// Best effort, batched and without its own fsync where the log store
	// allows it: leftovers are harmless (recovery re-applies decided
	// intentions idempotently and discards undecided ones), so cleanup
	// durability may ride on the next synced commit instead of adding an
	// fsync to every transaction.
	ops := make([]store.BatchOp, 0, len(keys)+1)
	for _, k := range keys {
		ops = append(ops, store.BatchOp{ID: k, Delete: true})
	}
	ops = append(ops, store.BatchOp{ID: decisionKey(t.id), Delete: true})
	_ = store.ApplyBatchBestEffort(t.mgr.log, ops)
}

func (t *Txn) setStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}

func (t *Txn) runCompletions(committed bool) {
	t.mu.Lock()
	hooks := t.completions
	t.completions = nil
	t.mu.Unlock()
	for _, h := range hooks {
		h(committed)
	}
}

// Recover replays the write-ahead log after a crash: every transaction
// with a durable commit decision has its remaining intentions applied via
// apply (normally Store.Write on the recovered store); undecided logs are
// discarded (presumed abort). It returns the number of transactions
// rolled forward.
func (m *Manager) Recover(apply func(obj store.ID, data []byte) error) (int, error) {
	decisions, err := m.log.List("txdecision/")
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	decided := make(map[ID]bool, len(decisions))
	for _, d := range decisions {
		decided[ID(strings.TrimPrefix(string(d), "txdecision/"))] = true
	}
	logs, err := m.log.List("txlog/")
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	replayed := make(map[ID]bool)
	for _, key := range logs {
		rest := strings.TrimPrefix(string(key), "txlog/")
		slash := strings.LastIndexByte(rest, '/')
		if slash < 0 {
			_ = m.log.Delete(key)
			continue
		}
		txid := ID(rest[:slash])
		objEnc := rest[slash+1:]
		if !decided[txid] {
			// Presumed abort.
			_ = m.log.Delete(key)
			continue
		}
		objStr, err := url.QueryUnescape(objEnc)
		if err != nil {
			return 0, fmt.Errorf("recover %s: bad intention key: %w", txid, err)
		}
		data, err := m.log.Read(key)
		if err != nil {
			return 0, fmt.Errorf("recover %s: %w", txid, err)
		}
		if err := apply(store.ID(objStr), data); err != nil {
			return 0, fmt.Errorf("recover %s: apply %s: %w", txid, objStr, err)
		}
		replayed[txid] = true
		_ = m.log.Delete(key)
	}
	for txid := range decided {
		_ = m.log.Delete(decisionKey(txid))
	}
	return len(replayed), nil
}
