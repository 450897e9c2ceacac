package persist_test

import (
	"errors"
	"testing"

	"repro/internal/persist"
	"repro/internal/store"
	"repro/internal/txn"
)

func TestBatchCommitAppliesAll(t *testing.T) {
	st := store.NewMemStore()
	reg := newReg(st)

	// Pre-existing object the batch deletes.
	tx := reg.Manager().Begin()
	if err := reg.Object("old").Set(tx, account{Balance: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	b := reg.NewBatch()
	if err := b.Set("a", account{Owner: "ann", Balance: 10}); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("b", account{Owner: "bob", Balance: 20}); err != nil {
		t.Fatal(err)
	}
	b.Delete("old")
	if err := b.Set("a", account{Owner: "ann", Balance: 11}); err != nil { // restage wins
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("batch len = %d, want 3", b.Len())
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	var a account
	if err := reg.Object("a").Peek(&a); err != nil || a.Balance != 11 {
		t.Fatalf("a = %+v, %v; want restaged balance 11", a, err)
	}
	if err := reg.Object("b").Peek(&a); err != nil || a.Balance != 20 {
		t.Fatalf("b = %+v, %v", a, err)
	}
	if err := reg.Object("old").Peek(&a); !errors.Is(err, persist.ErrNoState) {
		t.Fatalf("old survived batch delete: %v", err)
	}
	// No log residue.
	ids, _ := st.List("tx")
	if len(ids) != 0 {
		t.Fatalf("log not cleaned: %v", ids)
	}
}

func TestBatchEmptyCommitIsNoop(t *testing.T) {
	reg := newReg(store.NewMemStore())
	if err := reg.NewBatch().Commit(); err != nil {
		t.Fatal(err)
	}
	if reg.Manager().Active() != 0 {
		t.Fatal("empty batch leaked a transaction")
	}
}

// TestBatchCrashRecovery pins the crash contract of a batch: it is
// all-or-nothing. A batch that fails part-way through its apply leaves
// no state and no log behind (Registry.Recover has nothing to roll
// forward), and a committed batch survives a restart of the WAL whole,
// puts and deletes alike.
func TestBatchCrashRecovery(t *testing.T) {
	stage := func(reg *persist.Registry) *persist.Batch {
		b := reg.NewBatch()
		if err := b.Set("batch/x", account{Owner: "x", Balance: 1}); err != nil {
			t.Fatal(err)
		}
		if err := b.Set("batch/y", account{Owner: "y", Balance: 2}); err != nil {
			t.Fatal(err)
		}
		b.Delete("batch/victim")
		return b
	}
	seed := func(reg *persist.Registry) {
		tx := reg.Manager().Begin()
		if err := reg.Object("batch/victim").Set(tx, account{Balance: 5}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// The second put fails: nothing of the batch may land.
	mem := store.NewMemStore()
	reg := newReg(mem)
	seed(reg)
	mem.FailEvery(2)
	if err := stage(reg).Commit(); err == nil {
		t.Fatal("commit should report the injected failure")
	}
	mem.FailEvery(0)
	reg2 := persist.NewRegistry(mem, txn.NewManager(mem), nil)
	if n, err := reg2.Recover(); err != nil || n != 0 {
		t.Fatalf("recover after a failed batch: %d transactions, %v; want 0, nil", n, err)
	}
	if ids, _ := mem.List(""); len(ids) != 1 || ids[0] != "batch/victim" {
		t.Fatalf("failed batch left %v, want only the untouched batch/victim", ids)
	}

	// A committed batch survives a restart of the WAL.
	dir := t.TempDir()
	ws, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg = persist.NewRegistry(ws, txn.NewManager(ws), nil)
	seed(reg)
	if err := stage(reg).Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err = store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	reg2 = persist.NewRegistry(ws, txn.NewManager(ws), nil)
	if n, err := reg2.Recover(); err != nil || n != 0 {
		t.Fatalf("recover after a committed batch: %d transactions, %v; want 0, nil", n, err)
	}
	var a account
	if err := reg2.Peek("batch/x", &a); err != nil || a.Balance != 1 {
		t.Fatalf("batch/x after restart = %+v, %v", a, err)
	}
	if err := reg2.Peek("batch/y", &a); err != nil || a.Balance != 2 {
		t.Fatalf("batch/y after restart = %+v, %v", a, err)
	}
	if err := reg2.Peek("batch/victim", &a); !errors.Is(err, persist.ErrNoState) {
		t.Fatalf("batch delete lost across the restart: %v", err)
	}
}

// TestBatchTakesWriteLocks checks a batch serialises against Object
// transactions: while another family holds a write lock on a staged ID,
// the batch commit times out instead of racing it.
func TestBatchTakesWriteLocks(t *testing.T) {
	st := store.NewMemStore()
	mgr := txn.NewManager(st)
	lm := txn.NewLockManager(40 * 1e6) // 40ms
	reg := persist.NewRegistry(st, mgr, lm)

	holder := mgr.Begin()
	if err := reg.Object("contested").Set(holder, account{Balance: 1}); err != nil {
		t.Fatal(err)
	}

	b := reg.NewBatch()
	if err := b.Set("contested", account{Balance: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("batch against held write lock: %v, want lock timeout", err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	// Lock released: a fresh batch goes through.
	b2 := reg.NewBatch()
	if err := b2.Set("contested", account{Balance: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	var a account
	if err := reg.Object("contested").Peek(&a); err != nil || a.Balance != 3 {
		t.Fatalf("contested = %+v, %v", a, err)
	}
}

// TestBatchSingleDecisionOnWAL pins the fsync economics the engine
// relies on: committing N objects in one batch over a WALStore costs
// one fsync, not O(N), and leaves no transaction log behind.
func TestBatchSingleDecisionOnWAL(t *testing.T) {
	ws, err := store.NewWALStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	reg := persist.NewRegistry(ws, txn.NewManager(ws), nil)
	b := reg.NewBatch()
	for i := 0; i < 50; i++ {
		if err := b.Set(store.ID(rune('a'+i%26))+"/obj", account{Balance: i}); err != nil {
			t.Fatal(err)
		}
	}
	before := ws.Syncs()
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := ws.Syncs() - before; got != 1 {
		t.Fatalf("batch commit cost %d fsyncs, want 1", got)
	}
	if ids, _ := ws.List("tx"); len(ids) != 0 {
		t.Fatalf("batch left transaction log records: %v", ids)
	}
}
