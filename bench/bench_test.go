package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/txn"
)

// tiny returns a copy of the named workload with a small warm-up and
// one client (a traced window is a whole deck pass per client), so the
// smoke tests stay short; nothing in them asserts a timing.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	wl := *findWorkload(name)
	wl.warmup = map[string]int{"local-ephemeral": 8, "durable-wal": 2, "durable-wal-model": 2, "remote-pool": 4, "recover-wal": 1}[name]
	wl.clients = 1
	return &wl
}

// TestSmoke runs every workload tiny, untraced and traced twice on one
// seed: every metric is reported by name, nothing fails verification,
// and the exact-count metrics repeat.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // most of a tiny run is waiting: a flush, a round trip
			wl, dir := tiny(t, w.name), t.TempDir()
			res, err := runUntraced(wl, dir, defaultSeed, 100*time.Millisecond, 1, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("untraced: metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced: %d metrics, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, m := range ungated {
				if got, ok := res.Ungated[m.name]; !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("untraced: ungated metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}

			var runs [2]result
			for i := range runs {
				if runs[i], err = runTraced(wl, dir, defaultSeed, 200*time.Millisecond, io.Discard); err != nil {
					t.Fatal(err)
				}
				if !runs[i].Correct || runs[i].Failed != 0 {
					t.Fatalf("traced: correct=%v failed=%d", runs[i].Correct, runs[i].Failed)
				}
				for _, m := range perLayer {
					got, ok := runs[i].Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("traced: metric %s = %+v (present %v), want a finite value in %s", m.name, got, ok, m.unit)
					}
				}
				if len(runs[i].Metrics) != len(perLayer) {
					t.Errorf("traced: %d metrics, want exactly the %d per-layer ones", len(runs[i].Metrics), len(perLayer))
				}
			}
			for _, name := range exactCounts {
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of seed %d: %v vs %v", name, defaultSeed, a, b)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+wl.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestDeckIsSeedIndependent: the seed reorders a deck, it never changes
// what the deck holds.
func TestDeckIsSeedIndependent(t *testing.T) {
	count := func(d []spec) map[spec]int {
		m := map[spec]int{}
		for _, s := range d {
			m[s]++
		}
		return m
	}
	for _, wl := range workloads {
		a, b := makeDeck(1, wl.counts), makeDeck(2, wl.counts)
		if !reflect.DeepEqual(count(a), count(b)) {
			t.Errorf("%s: decks of seeds 1 and 2 hold different instances", wl.name)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same order", wl.name)
		}
		if !reflect.DeepEqual(a, makeDeck(1, wl.counts)) {
			t.Errorf("%s: seed 1 gives two different decks", wl.name)
		}
	}
}

// TestShapesCompile: every generated script is accepted by the front
// end and has the task count the oracle expects.
func TestShapesCompile(t *testing.T) {
	for _, wl := range workloads {
		for _, s := range wl.shapes {
			schema, err := sema.CompileSource(s.name, []byte(s.source()))
			if err != nil {
				t.Fatalf("%s/%s: %v", wl.name, s.name, err)
			}
			out, starts, _ := s.expect("x")
			if got := len(schema.AllTasks()); out != "x" || got != starts {
				t.Errorf("%s/%s: oracle says output %q and %d starts, schema has %d tasks", wl.name, s.name, out, starts, got)
			}
		}
	}
}

// recorder sits under the seams and keeps the op sequence reaching the
// store.
type recorder struct {
	*store.WALStore
	ops []string
}

func (r *recorder) note(kind string, ops []store.BatchOp) {
	for _, op := range ops {
		if op.Delete {
			kind += " -" + string(op.ID)
		} else {
			kind += " +" + string(op.ID)
		}
	}
	r.ops = append(r.ops, kind)
}

func (r *recorder) Write(id store.ID, data []byte) error {
	r.note("write", []store.BatchOp{{ID: id}})
	return r.WALStore.Write(id, data)
}

func (r *recorder) ApplyBatch(ops []store.BatchOp) error {
	r.note("batch", ops)
	return r.WALStore.ApplyBatch(ops)
}

func (r *recorder) ApplyBatchLazy(ops []store.BatchOp) error {
	r.note("lazy", ops)
	return r.WALStore.ApplyBatchLazy(ops)
}

// TestSeamForwardsCapabilities: the store seam has ApplyBatch and
// ApplyBatchLazy exactly when the wrapped store has them, and a
// seam-wrapped WAL run issues the same syncs and the same op sequence
// as the bare store on a fixed 20-instance script. A seam that hid
// ApplyBatch would turn one sync per drain into one per record.
func TestSeamForwardsCapabilities(t *testing.T) {
	tr := newTracer()
	plain := wrapStore(store.NewMemStore(), tr, false)
	if _, ok := plain.(store.Batcher); ok {
		t.Error("seam over MemStore claims ApplyBatch")
	}
	if _, ok := plain.(store.LazyBatcher); ok {
		t.Error("seam over MemStore claims ApplyBatchLazy")
	}

	schema := sema.MustCompileSource("chain4", []byte(chain(4, "", "stage").source()))
	run := func(wrap bool) ([]string, int64) {
		st, closer, err := store.Open("wal", t.TempDir(), true)
		if err != nil {
			t.Fatal(err)
		}
		defer closer()
		wal := st.(*store.WALStore)
		rec := &recorder{WALStore: wal}
		var state, log store.Store = rec, rec
		if wrap {
			state, log = wrapStore(rec, tr, false), wrapStore(rec, tr, true)
			for _, s := range []store.Store{state, log} {
				if _, ok := s.(store.Batcher); !ok {
					t.Error("seam over WALStore hides ApplyBatch")
				}
				if _, ok := s.(store.LazyBatcher); !ok {
					t.Error("seam over WALStore hides ApplyBatchLazy")
				}
			}
		}
		rc := &runCtx{wl: &workload{shapes: []shape{chain(4, "", "stage")}, clients: 1}, filler: makeFiller(1), oracle: []expectation{{starts: 5, execs: 4}}}
		w := &world{schemas: []*core.Schema{schema}}
		impls := registry.New()
		bind(impls, &w.execs, nil, kBinding)
		w.eng = engine.New(persist.NewRegistry(state, txn.NewManager(log), nil), impls, engine.Config{})
		defer w.eng.Close()
		l := newLooper(rc, w)
		for i := 0; i < 20; i++ {
			if _, err := l.one(0, spec{payload: 64}); err != nil {
				t.Fatal(err)
			}
		}
		return rec.ops, wal.Syncs()
	}
	bareOps, bareSyncs := run(false)
	seamOps, seamSyncs := run(true)
	if bareSyncs != seamSyncs {
		t.Errorf("syncs: bare %d, seam-wrapped %d", bareSyncs, seamSyncs)
	}
	if !reflect.DeepEqual(bareOps, seamOps) {
		t.Errorf("op sequences differ: bare %d batches, seam-wrapped %d", len(bareOps), len(seamOps))
	}
	if len(bareOps) == 0 || bareSyncs == 0 {
		t.Errorf("nothing observed: %d batches, %d syncs", len(bareOps), bareSyncs)
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and
// metrics the command reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wantW, wantE, wantP []named
	for _, w := range workloads {
		// The real disk's run-to-run spread fits no bound the driver
		// accepts; the driver gets the model disk in its place.
		if w.name != "durable-wal" {
			wantW = append(wantW, named{Name: w.name})
		}
	}
	for _, m := range endToEnd {
		wantE = append(wantE, named{m.name, m.unit})
	}
	for _, m := range perLayer {
		wantP = append(wantP, named{m.name, m.unit})
	}
	if !reflect.DeepEqual(spec.Workloads, wantW) {
		t.Errorf("workloads: %v, command runs %v", spec.Workloads, wantW)
	}
	if !reflect.DeepEqual(spec.EndToEnd, wantE) {
		t.Errorf("end_to_end: %v, command reports %v", spec.EndToEnd, wantE)
	}
	if !reflect.DeepEqual(spec.PerLayer, wantP) {
		t.Errorf("per_layer differs from what the command reports")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1 2 4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestUnionNs(t *testing.T) {
	spans := []span{{start: 5, end: 10}, {start: 0, end: 6}, {start: 20, end: 40}, {start: 22, end: 25}}
	if got := unionNs(spans, 0, 30); got != 20 {
		t.Errorf("union = %d, want 20 (0-10 and 20-30)", got)
	}
}

// TestCompareVerdicts: a regression beyond the bound fails, also when
// one side is noisy; a metric whose own spread exceeds the bound is
// unresolved, not unchanged; and only "unchanged" everywhere exits 0.
func TestCompareVerdicts(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	mk := func(starts float64, values ...float64) string {
		rep := report{Traced: map[string]result{
			"durable-wal": {Metrics: map[string]metric{"engine.task_starts_per_inst": {Value: starts, Unit: "count"}}},
		}}
		for _, v := range values {
			s := set{Workloads: map[string]result{}}
			for _, wl := range workloads {
				s.Workloads[wl.name] = result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}}
			}
			rep.Sets = append(rep.Sets, s)
		}
		data, _ := json.Marshal(rep)
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	capture := func(a, b string) (int, string) {
		old := os.Stdout
		r, w, _ := os.Pipe()
		os.Stdout = w
		code := compareFiles(spec, a, b)
		w.Close()
		os.Stdout = old
		out, _ := io.ReadAll(r)
		return code, string(out)
	}
	steady := mk(9, 10, 10.1, 10.2, 10.1)
	for _, c := range []struct {
		name, b, verdict string
		code             int
	}{
		{"same file", steady, "unchanged", 0},
		{"20% slower", mk(9, 12, 12.1, 12.2, 12.1), "REGRESSION", exitRegression},
		{"noisy side", mk(9, 10, 14, 7, 12), "unresolved", exitUnresolved},
		{"twice as slow and noisy", mk(9, 20, 28, 14, 24), "REGRESSION", exitRegression},
		{"another task-start count", mk(10, 10, 10.1, 10.2, 10.1), "DIFFERS", exitUnresolved},
	} {
		if code, out := capture(steady, c.b); code != c.code || !strings.Contains(out, c.verdict) {
			t.Errorf("%s: exit %d, want %d and %q\n%s", c.name, code, c.code, c.verdict, out)
		}
	}
}
