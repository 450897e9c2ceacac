package engine

import (
	"testing"
	"unsafe"

	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestRecoveryPassSharesSchemaSource: a recovery pass over the metas of
// one schema copies its source once. Every recovered meta's
// SchemaSource shares one backing array, the compiled schema's Source.
func TestRecoveryPassSharesSchemaSource(t *testing.T) {
	const n = 6
	st := store.NewMemStore()
	open := func() *Engine {
		e := New(persist.NewRegistry(st, txn.NewManager(st), nil), registry.New(), Config{})
		t.Cleanup(e.Close)
		return e
	}
	e := open()
	schema := workload.MustCompile("chain.wf", workload.Chain(3))
	for i := 0; i < n; i++ {
		if _, err := e.Instantiate(string(rune('a'+i)), schema, ""); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	e = open()
	ids, err := e.RecoverMatching(sema.CompileSource, nil)
	if err != nil || len(ids) != n {
		t.Fatalf("recovered %v, %v; want %d instances", ids, err, n)
	}
	var want *byte
	for _, id := range ids {
		inst, err := e.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		if inst.meta.SchemaSource != schema.Source {
			t.Fatalf("%s: recovered source differs from the instantiated one", id)
		}
		got := unsafe.StringData(inst.meta.SchemaSource)
		if want == nil {
			want = unsafe.StringData(inst.schema.Source)
		}
		if got != want {
			t.Errorf("%s: meta's SchemaSource is a copy of its own, not the pass's shared source", id)
		}
	}
}
