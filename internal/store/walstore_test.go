package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/store"
)

func newWAL(t *testing.T, dir string) *store.WALStore {
	t.Helper()
	s, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWALReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := newWAL(t, dir)
	if err := s.Write("a/1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("a/2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("a/1", []byte("one-v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a/2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newWAL(t, dir)
	defer s2.Close()
	got, err := s2.Read("a/1")
	if err != nil || string(got) != "one-v2" {
		t.Fatalf("a/1 after reopen: %q, %v", got, err)
	}
	if _, err := s2.Read("a/2"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("deleted a/2 resurrected: %v", err)
	}
	ids, err := s2.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "a/1" {
		t.Fatalf("list after reopen: %v", ids)
	}
}

// TestWALTornTailIgnored pins the crash-mid-append behaviour: a record
// whose tail never fully reached the disk is dropped on replay, every
// earlier record survives, and the store accepts new writes.
func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s := newWAL(t, dir)
	for i, v := range []string{"alpha", "beta", "gamma"} {
		if err := s.Write(store.ID(fmt.Sprintf("k%d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the newest non-empty segment (the one holding the
	// records).
	seg := newestSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := newWAL(t, dir)
	defer s2.Close()
	for i, v := range []string{"alpha", "beta"} {
		got, err := s2.Read(store.ID(fmt.Sprintf("k%d", i)))
		if err != nil || string(got) != v {
			t.Fatalf("k%d after torn tail: %q, %v", i, got, err)
		}
	}
	if _, err := s2.Read("k2"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("torn record k2 should be lost, got err=%v", err)
	}
	// The store must keep working and re-persist the lost object.
	if err := s2.Write("k2", []byte("gamma-again")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newWAL(t, dir)
	defer s3.Close()
	got, err := s3.Read("k2")
	if err != nil || string(got) != "gamma-again" {
		t.Fatalf("k2 after rewrite: %q, %v", got, err)
	}
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.Size() == 0 {
			continue
		}
		if best == "" || e.Name() > filepath.Base(best) {
			best = filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		t.Fatal("no non-empty segment found")
	}
	return best
}

// TestWALCompactionCrashNoDuplicateReplay simulates the compaction crash
// window where the snapshot is complete but the superseded segments were
// never deleted: reopening must replay the snapshot only — re-applying
// the old segments would resurrect deleted objects — and clean the
// leftovers up.
func TestWALCompactionCrashNoDuplicateReplay(t *testing.T) {
	dir := t.TempDir()
	s := newWAL(t, dir)
	if err := s.Write("keep", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("gone", []byte("temp")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}

	// Stash the pre-compaction segments so they can be "un-deleted".
	stash := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			stash[e.Name()] = raw
		}
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" before the segment deletions: restore the stashed segments
	// next to the completed snapshot.
	for name, raw := range stash {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newWAL(t, dir)
	defer s2.Close()
	got, err := s2.Read("keep")
	if err != nil || string(got) != "v1" {
		t.Fatalf("keep after compaction crash: %q, %v", got, err)
	}
	if _, err := s2.Read("gone"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("stale segment replay resurrected a deleted object: %v", err)
	}
	// The leftovers must be gone after the recovery open.
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name := range stash {
		for _, e := range entries {
			if e.Name() == name {
				t.Fatalf("stale segment %s not cleaned up", name)
			}
		}
	}
}

// TestWALAutoCompaction drives enough garbage through the store to
// trigger automatic compaction and checks the survivors.
func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := newWAL(t, dir)
	s.SetCompactThreshold(10)
	for i := 0; i < 40; i++ {
		if err := s.Write("hot", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write("cold", []byte("stable")); err != nil {
		t.Fatal(err)
	}
	snaps := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatal("no snapshot written despite garbage threshold")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newWAL(t, dir)
	defer s2.Close()
	got, err := s2.Read("hot")
	if err != nil || string(got) != "v39" {
		t.Fatalf("hot after compaction: %q, %v", got, err)
	}
	if got, err := s2.Read("cold"); err != nil || string(got) != "stable" {
		t.Fatalf("cold after compaction: %q, %v", got, err)
	}
}

// TestWALApplyBatchSingleSync pins the group-commit property for the
// batch path: one batch of puts and deletes costs exactly one fsync.
func TestWALApplyBatchSingleSync(t *testing.T) {
	s := newWAL(t, t.TempDir())
	defer s.Close()
	if err := s.Write("pre", []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := s.Syncs()
	ops := []store.BatchOp{
		{ID: "b/1", Data: []byte("one")},
		{ID: "b/2", Data: []byte("two")},
		{ID: "pre", Delete: true},
		{ID: "b/1", Data: []byte("one-v2")}, // later op in batch wins
		{ID: "missing", Delete: true},       // batch deletes tolerate absence
	}
	if err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := s.Syncs() - before; got != 1 {
		t.Fatalf("batch of %d ops cost %d fsyncs, want 1", len(ops), got)
	}
	if got, err := s.Read("b/1"); err != nil || string(got) != "one-v2" {
		t.Fatalf("b/1: %q, %v", got, err)
	}
	if _, err := s.Read("pre"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("pre survived batch delete: %v", err)
	}
}

// TestWALBatchIsOneRecord: a batch replays as a whole after a reopen
// (later ops win, deletes apply), and a tear anywhere in its one record
// loses the whole batch but nothing committed before it.
func TestWALBatchIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	s := newWAL(t, dir)
	if err := s.Write("pre", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("keep", []byte("k")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(newestSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	batchStart := int(info.Size())
	if err := s.ApplyBatch([]store.BatchOp{
		{ID: "b/1", Data: []byte("one")},
		{ID: "pre", Delete: true},
		{ID: "b/2", Data: nil},
		{ID: "b/1", Data: []byte("one-v2")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	s2 := newWAL(t, dir)
	ids, _ := s2.List("")
	if fmt.Sprint(ids) != "[b/1 b/2 keep]" {
		t.Fatalf("after reopen: %v, want [b/1 b/2 keep]", ids)
	}
	if got, _ := s2.Read("b/1"); string(got) != "one-v2" {
		t.Fatalf("b/1 = %q, want the batch's later put", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the batch record at every byte: none of it may survive.
	for cut := batchStart + 1; cut < len(whole); cut++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, filepath.Base(seg)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s3 := newWAL(t, tdir)
		ids, _ := s3.List("")
		_ = s3.Close()
		if fmt.Sprint(ids) != "[keep pre]" {
			t.Fatalf("batch record cut at byte %d of %d: recovered %v, want [keep pre]", cut-batchStart, len(whole)-batchStart, ids)
		}
	}
}

// TestWALGroupCommitCoalesces hammers the store from many goroutines and
// checks that concurrent commits shared fsyncs: far fewer syncs than
// writes. The injected disk latency makes the overlap deterministic —
// on a fast disk with an unlucky scheduler every write could finish its
// fsync before the next writer queued, and the test would measure
// scheduling, not group commit. With every write and fsync costing
// 200µs, writers provably pile up behind the in-flight flush.
func TestWALGroupCommitCoalesces(t *testing.T) {
	ops := failure.NewFaultStore(failure.DiskConfig{Delay: 200 * time.Microsecond})
	s, err := store.NewWALStoreWith(t.TempDir(), ops)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 32, 16
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := store.ID(fmt.Sprintf("w%d/k%d", w, i))
				if err := s.Write(id, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	total := int64(writers * perWriter)
	if got := s.Syncs(); got > total/2 {
		t.Fatalf("no group commit: %d fsyncs for %d writes", got, total)
	} else {
		t.Logf("group commit: %d fsyncs for %d writes", got, total)
	}
	if got := s.Len(); got != int(total) {
		t.Fatalf("lost writes: %d objects, want %d", got, total)
	}
}

// TestWALDifferentialVsMem is the randomized differential test: the same
// put/delete/list sequence against WALStore and MemStore must be
// indistinguishable, including across compactions and reopens.
func TestWALDifferentialVsMem(t *testing.T) {
	dir := t.TempDir()
	wal := newWAL(t, dir)
	wal.SetCompactThreshold(25)
	mem := store.NewMemStore()
	rng := rand.New(rand.NewSource(7))
	keys := make([]store.ID, 24)
	for i := range keys {
		keys[i] = store.ID(fmt.Sprintf("obj/%c/%d", 'a'+i%4, i))
	}
	check := func(step int) {
		t.Helper()
		for _, prefix := range []store.ID{"", "obj/a", "obj/b/", "nope"} {
			wl, err1 := wal.List(prefix)
			ml, err2 := mem.List(prefix)
			if err1 != nil || err2 != nil {
				t.Fatalf("step %d list %q: wal=%v mem=%v", step, prefix, err1, err2)
			}
			if !reflect.DeepEqual(wl, ml) {
				t.Fatalf("step %d list %q diverged: wal=%v mem=%v", step, prefix, wl, ml)
			}
		}
		for _, k := range keys {
			wv, werr := wal.Read(k)
			mv, merr := mem.Read(k)
			if (werr == nil) != (merr == nil) {
				t.Fatalf("step %d read %s diverged: wal=%v mem=%v", step, k, werr, merr)
			}
			if werr == nil && !bytes.Equal(wv, mv) {
				t.Fatalf("step %d read %s diverged: wal=%q mem=%q", step, k, wv, mv)
			}
		}
	}
	for step := 0; step < 600; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(5) {
		case 0: // delete
			werr := wal.Delete(k)
			merr := mem.Delete(k)
			if (werr == nil) != (merr == nil) {
				t.Fatalf("step %d delete %s diverged: wal=%v mem=%v", step, k, werr, merr)
			}
		case 1: // batch
			n := rng.Intn(4) + 1
			ops := make([]store.BatchOp, n)
			for i := range ops {
				kk := keys[rng.Intn(len(keys))]
				if rng.Intn(3) == 0 {
					ops[i] = store.BatchOp{ID: kk, Delete: true}
				} else {
					ops[i] = store.BatchOp{ID: kk, Data: []byte(fmt.Sprintf("b%d-%d", step, i))}
				}
			}
			if err := wal.ApplyBatch(ops); err != nil {
				t.Fatalf("step %d wal batch: %v", step, err)
			}
			if err := store.ApplyBatch(mem, ops); err != nil {
				t.Fatalf("step %d mem batch: %v", step, err)
			}
		default: // put
			v := []byte(fmt.Sprintf("v%d", step))
			if err := wal.Write(k, v); err != nil {
				t.Fatalf("step %d wal write: %v", step, err)
			}
			if err := mem.Write(k, v); err != nil {
				t.Fatalf("step %d mem write: %v", step, err)
			}
		}
		if step%97 == 0 {
			check(step)
		}
		if step%211 == 210 {
			// Simulated restart mid-sequence.
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			wal = newWAL(t, dir)
			wal.SetCompactThreshold(25)
			check(step)
		}
	}
	check(600)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal = newWAL(t, dir)
	defer wal.Close()
	check(601)
}

// TestWALStaleSnapshotTmpCleanedUp: a compaction crash between writing
// and renaming the snapshot leaves snap-*.tmp behind; open must remove
// it rather than leak one file per crash.
func TestWALStaleSnapshotTmpCleanedUp(t *testing.T) {
	dir := t.TempDir()
	s := newWAL(t, dir)
	if err := s.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "snap-000000000099.seg.tmp")
	if err := os.WriteFile(tmp, []byte("torn snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newWAL(t, dir)
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot tmp not cleaned up: %v", err)
	}
	if got, err := s2.Read("k"); err != nil || string(got) != "v" {
		t.Fatalf("k after cleanup open: %q, %v", got, err)
	}
}
