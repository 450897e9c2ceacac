package engine_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/txn"
)

// The on-disk compatibility tests. testdata/legacy-wal is a WAL
// directory written by the tree before the record codec existed (every
// state a gob stream; testdata/README.md says how it was made): ten
// completed instances whose payload is one value of each type the
// engine registers, "parked" waiting at a join on a pending 10 s delay
// armed for epoch+20s, and "reconf" parked the same way after a live
// reconfiguration added app/t9. The log was closed at epoch+14s.

// fixtureWant is the result payload of every fixture instance.
var fixtureWant = map[string]any{
	"done-string":  "x",
	"done-int":     42,
	"done-int64":   int64(-7),
	"done-float64": 1.5,
	"done-bool":    true,
	"done-bytes":   []byte{1, 2, 3},
	"done-strings": []string{"a", "b"},
	"done-map":     map[string]string{"k": "v"},
	"done-time":    epoch.Add(time.Hour),
	"done-nil":     nil,
	"parked":       "p",
	"reconf":       "r",
}

// openFixture copies the fixture into a fresh directory and opens it.
func openFixture(t *testing.T) (dir string, st store.Store, closeStore func()) {
	t.Helper()
	dir = t.TempDir()
	src := filepath.Join("testdata", "legacy-wal")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, closeStore, err = store.Open("wal", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	return dir, st, closeStore
}

// fixtureEngine rolls the log forward and recovers every instance on a
// fresh engine whose implementations count their runs.
func fixtureEngine(t *testing.T, st store.Store, clock *timers.FakeClock) (*engine.Engine, []string, map[string]int, error) {
	t.Helper()
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	if _, err := preg.Recover(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	runs := make(map[string]int)
	impls := registry.New()
	counted := func(in string) registry.Func {
		return func(ctx registry.Context) (registry.Result, error) {
			mu.Lock()
			runs[ctx.Instance()+"/"+ctx.TaskPath()]++
			mu.Unlock()
			return registry.Result{Output: "done", Objects: registry.Objects{"d": ctx.Inputs()[in]}}, nil
		}
	}
	impls.Bind("echo", counted("d"))
	impls.Bind("join", counted("a"))
	eng := engine.New(preg, impls, engine.Config{Clock: clock})
	engine.VerifyScheduler(eng)
	t.Cleanup(eng.Close)
	ids, err := eng.RecoverMatching(sema.CompileSource, nil)
	sort.Strings(ids)
	return eng, ids, runs, err
}

// checkFixtureResults waits every instance out and checks its payload.
func checkFixtureResults(t *testing.T, eng *engine.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for id, want := range fixtureWant {
		inst, err := eng.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Output != "done" || !reflect.DeepEqual(res.Objects["d"].Data, want) {
			t.Fatalf("%s: result %s %#v, want done %#v", id, res.Output, res.Objects["d"].Data, want)
		}
	}
	inst, err := eng.Instance("reconf")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range rows {
		found = found || (row.Path == "app/t9" && row.State == engine.RunCompleted)
	}
	if !found {
		t.Fatalf("reconfiguration-added app/t9 not completed after recovery: %+v", rows)
	}
}

func TestLegacyWALFixture(t *testing.T) {
	_, st, closeStore := openFixture(t)
	defer closeStore()
	data, err := st.Read("inst/parked/run/app%2Ft1")
	if err != nil {
		t.Fatal(err)
	}
	if data[0] >= 0x80 && data[0] <= 0xF7 {
		t.Fatalf("fixture record starts %#x: not a legacy gob record", data[0])
	}
	clock := timers.NewFakeClock(epoch.Add(14 * time.Second))
	eng, ids, runs, err := fixtureEngine(t, st, clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(fixtureWant) {
		t.Fatalf("recovered %v, want the %d fixture instances", ids, len(fixtureWant))
	}
	// The delays were armed for epoch+20s and fire there, not 10 s after
	// the restart.
	clock.Advance(6 * time.Second)
	checkFixtureResults(t, eng)
	// Completed work stays completed: only the two joins run.
	want := map[string]int{"parked/app/t3": 1, "reconf/app/t3": 1}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("implementation runs after recovery = %v, want %v", runs, want)
	}
}

// TestMixedLegacyAndCodecLog recovers the fixture, lets the parked
// instances finish (writing codec records over legacy ones for the same
// keys), then restarts over the mixed log: every instance comes back
// with the same result and nothing runs again.
func TestMixedLegacyAndCodecLog(t *testing.T) {
	dir, st, closeStore := openFixture(t)
	clock := timers.NewFakeClock(epoch.Add(14 * time.Second))
	eng, _, _, err := fixtureEngine(t, st, clock)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	checkFixtureResults(t, eng)
	eng.Close()
	closeStore()

	st, closeStore, err = store.Open("wal", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()
	for id, codec := range map[store.ID]bool{"inst/parked/run/app%2Ft3": true, "inst/done-int/run/app%2Ft3": false} {
		data, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if isCodec := data[0] >= 0x80 && data[0] <= 0xF7; isCodec != codec {
			t.Fatalf("%s starts %#x: codec record = %v, want %v", id, data[0], isCodec, codec)
		}
	}
	eng2, ids, runs, err := fixtureEngine(t, st, clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(fixtureWant) {
		t.Fatalf("recovered %v, want the %d fixture instances", ids, len(fixtureWant))
	}
	checkFixtureResults(t, eng2)
	if len(runs) != 0 {
		t.Fatalf("implementations ran again over the mixed log: %v", runs)
	}
}

// TestRecoverUnknownRecordVersion: a record whose version byte lies in
// the codec range but names no known layout is an explicit error for
// its instance, never a gob decode of garbage; the other instances
// still come back.
func TestRecoverUnknownRecordVersion(t *testing.T) {
	_, st, closeStore := openFixture(t)
	defer closeStore()
	if err := st.Write("inst/parked/run/app%2Ft1", []byte{0xF7, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, ids, _, err := fixtureEngine(t, st, timers.NewFakeClock(epoch.Add(14*time.Second)))
	if !errors.Is(err, persist.ErrRecordVersion) {
		t.Fatalf("recover error = %v, want ErrRecordVersion", err)
	}
	if len(ids) != len(fixtureWant)-1 {
		t.Fatalf("recovered %v, want every instance but parked", ids)
	}
	for _, id := range ids {
		if id == "parked" {
			t.Fatal("parked recovered from an unknown record version")
		}
	}
}
