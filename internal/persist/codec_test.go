package persist_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/workload"
)

// pair is a minimal codec record: a string and an object set.
type pair struct {
	Name string
	Objs registry.Objects
}

func (p pair) AppendRecord(b []byte) ([]byte, error) {
	return persist.AppendObjects(persist.AppendString(b, p.Name), p.Objs)
}

func (p *pair) ReadRecord(data []byte) error {
	r := persist.NewRecordReader(data)
	*p = pair{Name: r.Str(), Objs: r.Objects()}
	return r.Finish()
}

// TestDecodeRoutesOnVersionByte: the codec range goes to the codec (an
// unknown version there is an explicit error), everything else is read
// as a legacy gob stream.
func TestDecodeRoutesOnVersionByte(t *testing.T) {
	want := pair{Name: "n", Objs: registry.Objects{"k": {Class: "C", Data: "v"}}}
	data, err := persist.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	var got pair
	if err := persist.Decode(data, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("codec round trip = %+v, %v", got, err)
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(want); err != nil {
		t.Fatal(err)
	}
	got = pair{}
	if err := persist.Decode(legacy.Bytes(), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy gob read = %+v, %v", got, err)
	}
	for _, v := range []byte{0x81, 0xC0, 0xF7} {
		bad := append([]byte{v}, data[1:]...)
		if err := persist.Decode(bad, &got); !errors.Is(err, persist.ErrRecordVersion) {
			t.Fatalf("version %#x: err = %v, want ErrRecordVersion", v, err)
		}
	}
	// 0xF8 opens an 8-byte gob length: gob's business, not a version.
	if err := persist.Decode([]byte{0xF8, 1}, &got); err == nil || errors.Is(err, persist.ErrRecordVersion) {
		t.Fatalf("gob-range byte: err = %v, want a gob error", err)
	}
	// A codec record into a type without a codec is an error, not gob.
	var m map[string]int
	if err := persist.Decode(data, &m); err == nil {
		t.Fatal("codec record decoded into a non-codec type")
	}
}

// TestDecodeRejectsOverrunningLengths: truncations and lengths that
// claim more bytes than remain fail cleanly.
func TestDecodeRejectsOverrunningLengths(t *testing.T) {
	data, err := persist.Encode(pair{Name: "name", Objs: registry.Objects{"k": {Data: []string{"a", "b"}}}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(data); n++ {
		var p pair
		if err := persist.Decode(data[:n], &p); err == nil {
			t.Fatalf("truncated to %d bytes: no error", n)
		}
	}
	huge := []byte{0x80, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'} // name length 2^32-1
	var p pair
	if err := persist.Decode(huge, &p); err == nil {
		t.Fatal("overrunning length: no error")
	}
	if err := persist.Decode(append(data, 0), &p); err == nil {
		t.Fatal("trailing byte: no error")
	}
}

type appValue struct{ A, B int }

type unregistered struct{ X int }

func init() { gob.Register(appValue{}) }

// TestObjectsGobFallback: payload types outside the closed set ride a
// per-value gob tag, so a registered application type round-trips and
// an unregistered one fails as it did under gob.
func TestObjectsGobFallback(t *testing.T) {
	want := pair{Objs: registry.Objects{"a": {Class: "App", Data: appValue{A: 1, B: 2}}, "s": {Data: "plain"}}}
	data, err := persist.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	var got pair
	if err := persist.Decode(data, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback round trip = %+v, %v", got, err)
	}
	if _, err := persist.Encode(pair{Objs: registry.Objects{"u": {Data: unregistered{}}}}); err == nil {
		t.Fatal("unregistered payload type encoded")
	}
}

// TestRegistryPeekLeavesNoHandle: Registry.Peek reads the committed
// state like Object.Peek but caches no handle.
func TestRegistryPeekLeavesNoHandle(t *testing.T) {
	reg := newReg(store.NewMemStore())
	tx := reg.Manager().Begin()
	if err := reg.Object("a").Set(tx, account{Owner: "a", Balance: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Recover(); err != nil { // drops the handle Set made
		t.Fatal(err)
	}
	var a account
	if err := reg.Peek("a", &a); err != nil || a.Balance != 3 {
		t.Fatalf("peek = %+v, %v", a, err)
	}
	if err := reg.Peek("missing", &a); !errors.Is(err, persist.ErrNoState) {
		t.Fatalf("peek missing: %v, want ErrNoState", err)
	}
	if n := reg.Handles(); n != 0 {
		t.Fatalf("%d handles after Peek, want 0", n)
	}
}

// TestRecoverMatchingMintsNoHandles: re-materializing N instances reads
// every meta, run state and timer record without growing the handle
// cache.
func TestRecoverMatchingMintsNoHandles(t *testing.T) {
	const n = 8
	st := store.NewMemStore()
	gate := make(chan struct{})
	stall := func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return registry.Result{}, errors.New("stopped")
	}
	impls := registry.New()
	workload.Bind(impls)
	impls.Bind("pair", stall)
	eng := engine.New(newReg(st), impls, engine.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		inst, err := eng.Instantiate(fmt.Sprintf("d%d", i), workload.MustCompile("diamond", workload.Diamond(2)), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool { return e.Kind == engine.EventTaskStarted && e.Task == "app/j0" }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	close(gate)

	reg := newReg(st)
	if _, err := reg.Recover(); err != nil {
		t.Fatal(err)
	}
	impls2 := registry.New()
	workload.Bind(impls2)
	eng2 := engine.New(reg, impls2, engine.Config{})
	defer eng2.Close()
	before := reg.Handles()
	ids, err := eng2.RecoverMatching(sema.CompileSource, nil)
	if err != nil || len(ids) != n {
		t.Fatalf("recovered %v, %v; want %d instances", ids, err, n)
	}
	if after := reg.Handles(); after != before {
		t.Fatalf("handles %d -> %d across RecoverMatching of %d instances", before, after, n)
	}
}

// TestInstantiateMintsNoHandles: instantiating and running N instances
// to completion commits their metas and run states through batches, so
// the handle cache does not grow by a handle per key per instance.
func TestInstantiateMintsNoHandles(t *testing.T) {
	const n = 8
	reg := newReg(store.NewMemStore())
	impls := registry.New()
	workload.Bind(impls)
	eng := engine.New(reg, impls, engine.Config{})
	defer eng.Close()
	schema := workload.MustCompile("chain", workload.Chain(3))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := reg.Handles()
	for i := 0; i < n; i++ {
		inst, err := eng.Instantiate(fmt.Sprintf("c%d", i), schema, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			t.Fatal(err)
		}
		if res, err := inst.Wait(ctx); err != nil || res.Output != "done" {
			t.Fatalf("instance c%d: %+v, %v", i, res, err)
		}
	}
	if after := reg.Handles(); after != before {
		t.Fatalf("handles %d -> %d across %d instances", before, after, n)
	}
}
