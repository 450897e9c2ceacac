package failure_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/failure"
	"repro/internal/store"
)

// TestWALFsyncFailureWedges proves the fsyncgate invariant: the first
// failed fsync permanently wedges the log — no later commit can succeed
// until the store is reopened from what provably reached the disk.
func TestWALFsyncFailureWedges(t *testing.T) {
	dir := t.TempDir()
	faults := failure.NewFaultStore(failure.DiskConfig{})
	ws, err := store.NewWALStoreWith(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Write("inst/a/x", []byte("acked")); err != nil {
		t.Fatal(err)
	}

	faults.WedgeSyncs()
	if err := ws.Write("inst/a/y", []byte("lost")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("write after failed fsync = %v, want ErrWedged", err)
	}
	if got := ws.Wedged(); !errors.Is(got, store.ErrWedged) {
		t.Fatalf("Wedged() = %v, want ErrWedged", got)
	}
	// Wedged is sticky: even if the disk "recovers", nothing may assume
	// the earlier fsync's data reached it.
	if err := ws.Write("inst/a/z", []byte("also refused")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("write on wedged store = %v, want ErrWedged", err)
	}
	// Reads of acknowledged state keep serving (the index is intact).
	if _, err := ws.Read("inst/a/x"); err != nil {
		t.Fatalf("read on wedged store: %v", err)
	}
	_ = ws.Close()

	// Reopening recovers every acknowledged write. The write whose
	// fsync failed ("y") may or may not appear — it was never
	// acknowledged, so either is allowed — but the write refused by the
	// wedge ("z") must not: the wedge kept it off the disk entirely.
	ws2, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if _, err := ws2.Read("inst/a/x"); err != nil {
		t.Fatalf("acknowledged write lost across reopen: %v", err)
	}
	if _, err := ws2.Read("inst/a/z"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("wedge-refused write resurrected: %v", err)
	}
}

// TestWALENOSPCRollsBackWithoutWedging is the ENOSPC regression test: a
// failed append whose rollback succeeds must not wedge the store, and
// the acknowledged prefix must survive reopen.
func TestWALENOSPCRollsBackWithoutWedging(t *testing.T) {
	dir := t.TempDir()
	faults := failure.NewFaultStore(failure.DiskConfig{WriteBudget: 256})
	ws, err := store.NewWALStoreWith(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	var acked []store.ID
	var sawENOSPC bool
	for i := 0; i < 64; i++ {
		id := store.ID(fmt.Sprintf("inst/a/k%03d", i))
		err := ws.Write(id, []byte("0123456789abcdef"))
		if err == nil {
			acked = append(acked, id)
			continue
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d: %v, want ENOSPC", i, err)
		}
		sawENOSPC = true
		break
	}
	if !sawENOSPC {
		t.Fatal("budget never exhausted")
	}
	if len(acked) == 0 {
		t.Fatal("no write succeeded before ENOSPC")
	}
	if got := ws.Wedged(); got != nil {
		t.Fatalf("ENOSPC with clean rollback wedged the store: %v", got)
	}
	_ = ws.Close()

	ws2, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	for _, id := range acked {
		if _, err := ws2.Read(id); err != nil {
			t.Fatalf("acknowledged write %s lost after ENOSPC: %v", id, err)
		}
	}
	if _, err := ws2.Read("inst/a/k063"); !errors.Is(err, store.ErrNotFound) && len(acked) < 64 {
		t.Fatalf("failed write resurrected: %v", err)
	}
}

// TestWALTornWriteRollsBack: an append cut mid-record is truncated away
// and later commits land cleanly after it.
func TestWALTornWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	faults := failure.NewFaultStore(failure.DiskConfig{TornWriteProb: 1, Seed: 7})
	ws, err := store.NewWALStoreWith(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	err = ws.Write("inst/a/x", []byte("torn"))
	if err == nil || errors.Is(err, store.ErrWedged) {
		t.Fatalf("torn write = %v, want plain failure", err)
	}
	if faults.Stats().TornWrites == 0 {
		t.Fatal("no torn write injected")
	}
	_ = ws.Close()

	// The prefix that reached the file is a rolled-back tear; reopen
	// must see an empty store and accept new writes.
	ws2, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if _, err := ws2.Read("inst/a/x"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("torn write resurrected: %v", err)
	}
	if err := ws2.Write("inst/a/x", []byte("clean")); err != nil {
		t.Fatal(err)
	}
}

// TestWALMidLogCorruptionIsLoud: damage before acknowledged records
// must fail the open with ErrCorrupt, never silently truncate.
func TestWALMidLogCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	ws, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := ws.Write(store.ID(fmt.Sprintf("inst/a/k%d", i)), []byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of the segment (records after it stay
	// valid).
	seg := findOneSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := store.NewWALStore(dir); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

// findOneSegment returns the single non-empty wal segment in dir.
func findOneSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > 0 && filepath.Ext(e.Name()) == ".seg" {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no non-empty segment found")
	return ""
}

// TestWedgeStore: the simulator's injectable store view.
func TestWedgeStore(t *testing.T) {
	ws := failure.NewWedgeStore(store.NewMemStore())
	if err := ws.Write("inst/a/x", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	ws.Wedge(nil)
	if err := ws.Write("inst/a/y", []byte("no")); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("write on wedged view = %v, want ErrWedged", err)
	}
	if err := ws.ApplyBatch([]store.BatchOp{{ID: "inst/a/z", Data: []byte("no")}}); !errors.Is(err, store.ErrWedged) {
		t.Fatalf("batch on wedged view = %v, want ErrWedged", err)
	}
	if _, err := ws.Read("inst/a/x"); err != nil {
		t.Fatalf("read on wedged view: %v", err)
	}
	// The shared inner state stays healthy for a peer to recover from.
	if err := ws.Inner().Write("inst/a/y", []byte("peer")); err != nil {
		t.Fatalf("inner store affected by wedge: %v", err)
	}
}

// TestFaultStoreDeterministic: same seed, same fault sequence.
func TestFaultStoreDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		dir := t.TempDir()
		faults := failure.NewFaultStore(failure.DiskConfig{TornWriteProb: 0.4, Seed: seed})
		ws, err := store.NewWALStoreWith(dir, faults)
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		var out []bool
		for i := 0; i < 24; i++ {
			err := ws.Write(store.ID(fmt.Sprintf("inst/a/k%d", i)), []byte("data"))
			out = append(out, err == nil)
		}
		return out
	}
	a, b := run(11), run(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce the same disk-fault sequence")
		}
	}
}
