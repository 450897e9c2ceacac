package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

// stores returns one instance of every Store implementation for
// behavioural conformance tests.
func stores(t *testing.T) map[string]store.Store {
	t.Helper()
	return map[string]store.Store{
		"mem": store.NewMemStore(),
		"wal": unsyncedWAL(t),
	}
}

// unsyncedWAL opens a WALStore in a fresh directory, without fsync (tests do
// not simulate power loss).
func unsyncedWAL(t *testing.T) *store.WALStore {
	t.Helper()
	ws, err := store.NewWALStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws.SetSync(false)
	t.Cleanup(func() { _ = ws.Close() })
	return ws
}

func TestStoreConformance(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			// Read missing.
			if _, err := st.Read("nope"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("read missing: %v, want ErrNotFound", err)
			}
			// Write, read back.
			if err := st.Write("a/b", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := st.Read("a/b")
			if err != nil || string(got) != "hello" {
				t.Fatalf("read = %q, %v", got, err)
			}
			// Overwrite.
			if err := st.Write("a/b", []byte("world")); err != nil {
				t.Fatal(err)
			}
			got, _ = st.Read("a/b")
			if string(got) != "world" {
				t.Fatalf("read after overwrite = %q", got)
			}
			// List with prefix.
			if err := st.Write("a/c", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := st.Write("b/d", []byte("y")); err != nil {
				t.Fatal(err)
			}
			ids, err := st.List("a/")
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 2 || ids[0] != "a/b" || ids[1] != "a/c" {
				t.Fatalf("list a/ = %v", ids)
			}
			// Delete.
			if err := st.Delete("a/b"); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete("a/b"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("double delete: %v, want ErrNotFound", err)
			}
			if _, err := st.Read("a/b"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("read deleted: %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreAwkwardIDs(t *testing.T) {
	// IDs with characters that are unsafe in file names must round-trip.
	ids := []store.ID{
		"inst/order #1/run/a b",
		"x/%2F/y",
		"täsk/ünïcode",
		"dots/../notescaped",
		"inst/a/run/compound/task", // nested path
	}
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i, id := range ids {
				data := []byte(fmt.Sprintf("payload-%d", i))
				if err := st.Write(id, data); err != nil {
					t.Fatalf("write %q: %v", id, err)
				}
				got, err := st.Read(id)
				if err != nil || string(got) != string(data) {
					t.Fatalf("read %q = %q, %v", id, got, err)
				}
			}
			all, err := st.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(ids) {
				t.Fatalf("list all = %d ids (%v), want %d", len(all), all, len(ids))
			}
		})
	}
}

func TestStoreConcurrentWriters(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const workers = 8
			const per = 50
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < per; k++ {
						id := store.ID(fmt.Sprintf("w%d/k%d", w, k))
						if err := st.Write(id, []byte(fmt.Sprintf("%d-%d", w, k))); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			ids, err := st.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != workers*per {
				t.Fatalf("stored %d, want %d", len(ids), workers*per)
			}
		})
	}
}

func TestMemStoreFailureInjection(t *testing.T) {
	st := store.NewMemStore()
	st.FailEvery(3)
	var failures int
	for k := 0; k < 9; k++ {
		if err := st.Write(store.ID(fmt.Sprintf("k%d", k)), []byte("v")); err != nil {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3", failures)
	}
	st.FailEvery(0)
	if err := st.Write("ok", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreFailedBatchAppliesNothing: a batch is all-or-nothing on
// MemStore too, so a batch whose third put hits FailEvery leaves the
// first two puts and the delete unapplied.
func TestMemStoreFailedBatchAppliesNothing(t *testing.T) {
	st := store.NewMemStore()
	if err := st.Write("gone", []byte("old")); err != nil {
		t.Fatal(err)
	}
	st.FailEvery(3)
	err := store.ApplyBatch(st, []store.BatchOp{
		{ID: "a", Data: []byte("1")},
		{ID: "gone", Delete: true},
		{ID: "b", Data: []byte("2")},
		{ID: "c", Data: []byte("3")},
	})
	if err == nil {
		t.Fatal("batch crossing the FailEvery point succeeded")
	}
	ids, _ := st.List("")
	if len(ids) != 1 || ids[0] != "gone" {
		t.Fatalf("failed batch left %v, want only the untouched [gone]", ids)
	}
	st.FailEvery(0)
	if err := store.ApplyBatch(st, []store.BatchOp{{ID: "a", Data: []byte("1")}, {ID: "gone", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if ids, _ := st.List(""); len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("after a clean batch: %v, want [a]", ids)
	}
}

// TestOpenRefusesShadowFileLayout: a directory written by the retired
// shadow-file store reads as an empty WAL, so Open refuses it and names
// what it found instead of letting recovery drop its contents.
func TestOpenRefusesShadowFileLayout(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"inst/a", "txlog"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := store.Open("wal", dir, false)
	if err == nil {
		t.Fatal("Open(wal) over a shadow-file directory succeeded")
	}
	for _, want := range []string{"shadow-file", "inst/", "txlog/"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The refusal released the directory lock, and a directory that also
	// holds WAL segments is a WAL that happens to hold such names.
	if err := os.WriteFile(filepath.Join(dir, "wal-000000000001.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, closer, err := store.Open("wal", dir, false)
	if err != nil {
		t.Fatalf("Open(wal) with a segment present: %v", err)
	}
	closer()
	if _, _, err := store.Open("file", t.TempDir(), false); err == nil {
		t.Fatal(`Open("file") still accepted`)
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	mem := store.NewMemStore()
	fs := unsyncedWAL(t)
	// Property: any (key, value) written is read back identically from
	// both stores, where keys are non-empty printable-ish strings.
	f := func(key string, value []byte) bool {
		if key == "" {
			return true
		}
		id := store.ID("p/" + key)
		if mem.Write(id, value) != nil || fs.Write(id, value) != nil {
			return false
		}
		a, err1 := mem.Read(id)
		b, err2 := fs.Read(id)
		if err1 != nil || err2 != nil {
			return false
		}
		return string(a) == string(value) && string(b) == string(value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
