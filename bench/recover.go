package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/txn"
)

// recoverer runs recover-wal cycles: an untimed populate that leaves a
// WAL directory holding one deck of completed instances (history) and
// one deck parked at their joins, then a timed restart that replays the
// log and runs the parked deck to completion.
type recoverer struct {
	rc     *runCtx
	schema *core.Schema
	cycles int
	// syncs sums the fsyncs of the timed restarts a window measured.
	syncs int64
}

func newRecoverer(rc *runCtx) (*recoverer, error) {
	schemas, err := rc.compileShapes()
	if err != nil {
		return nil, err
	}
	return &recoverer{rc: rc, schema: schemas[0]}, nil
}

// populate fills dir with fsync off and returns the parked instances'
// seed payloads by id.
func (r *recoverer) populate(dir string) (map[string]string, error) {
	wal, closer, err := store.Open("wal", dir, false)
	if err != nil {
		return nil, err
	}
	defer closer()
	var park atomic.Bool
	// Sized to the sends: two joins of every parked instance block.
	parked := make(chan struct{}, 2*deckSize)
	impls := registry.New()
	var execs atomic.Int64
	bind(impls, &execs, nil, kBinding)
	impls.Bind("pair", func(ctx registry.Context) (registry.Result, error) {
		if park.Load() {
			parked <- struct{}{}
			<-ctx.Done()
			return registry.Result{}, errors.New("parked")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["left"]}}, nil
	})
	eng := engine.New(persist.NewRegistry(wal, txn.NewManager(wal), nil), impls, engine.Config{})
	defer eng.Close()

	r.cycles++
	seeds := make(map[string]string, deckSize)
	for pass, prefix := range []string{"h", "p"} {
		park.Store(pass == 1)
		for i, sp := range r.rc.deck {
			id := fmt.Sprintf("%s%d-%02d", prefix, r.cycles, i)
			seed := payload(r.rc.filler, sp.payload, uint64(r.cycles)<<8|uint64(i))
			inst, err := eng.Instantiate(id, r.schema, "")
			if err != nil {
				return nil, err
			}
			if err := inst.Start("main", registry.Objects{"seed": {Class: "Data", Data: seed}}); err != nil {
				return nil, err
			}
			if pass == 1 {
				seeds[id] = seed
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), instanceTimeout)
			_, err = inst.Wait(ctx)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("populate %s: %w", id, err)
			}
		}
	}
	for i := 0; i < cap(parked); i++ {
		select {
		case <-parked:
		case <-time.After(instanceTimeout):
			return nil, errors.New("populate: joins never parked")
		}
	}
	return seeds, nil
}

// cycleResult is one timed recovery.
type cycleResult struct {
	cost   slice
	syncs  int64
	failed int
	err    error
}

// cycle populates a fresh directory and times its recovery: store
// re-open (log replay) → intention roll-forward → recompile and resume
// of every persisted instance → all parked instances terminal. fsync is
// on, as it would be after a real crash.
func (r *recoverer) cycle() (res cycleResult) {
	fail := func(err error) cycleResult {
		return cycleResult{failed: deckSize, err: err}
	}
	dir, err := os.MkdirTemp(r.rc.dir, "recover-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	seeds, err := r.populate(dir)
	if err != nil {
		return fail(err)
	}

	tr := r.rc.tr
	var stageRuns, runs atomic.Int64
	impls := registry.New()
	bind(impls, &runs, tr, kBinding)
	stage, _ := impls.Lookup("stage")
	impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		stageRuns.Add(1)
		return stage(ctx)
	})
	var it *instTrace
	if tr != nil {
		it = &instTrace{id: fmt.Sprintf("cycle-%d", r.cycles)}
		tr.cycle.Store(it)
		defer tr.cycle.Store(nil)
	}
	mark := func(k kind, start time.Time) time.Time {
		now := time.Now()
		if tr != nil {
			tr.spanAt(it, k, "", start, now)
		}
		return now
	}

	// A restarted process begins with an empty heap; the populate's
	// garbage must not be collected on the restart's clock.
	runtime.GC()
	before := readCounters(0)
	t0 := before.at
	st, closer, err := store.Open("wal", dir, true)
	if err != nil {
		return fail(err)
	}
	defer closer()
	wal := st.(*store.WALStore)
	t1 := mark(kOpenReplay, t0)
	state, log := r.rc.stores(wal)
	preg := persist.NewRegistry(state, txn.NewManager(log), nil)
	if _, err := preg.Recover(); err != nil {
		return fail(err)
	}
	t2 := mark(kPersistRecover, t1)
	eng := engine.New(preg, impls, r.rc.engineConfig(false))
	defer eng.Close()
	ids, err := eng.RecoverMatching(r.rc.compile, nil)
	if err != nil {
		return fail(err)
	}
	t3 := mark(kRecoverMatching, t2)
	results := make(map[string]engine.Result, len(seeds))
	for id := range seeds {
		inst, err := eng.Instance(id)
		if err != nil {
			return fail(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), instanceTimeout)
		results[id], err = inst.Wait(ctx)
		cancel()
		if err != nil {
			return fail(fmt.Errorf("recovered %s: %w", id, err))
		}
	}
	after := readCounters(deckSize)
	if tr != nil {
		tr.spanAt(it, kWait, "", t3, after.at)
		tr.finish(it, t0, after.at)
	}

	res.cost = between(before, after)
	res.syncs = wal.Syncs()
	for id, seed := range seeds {
		got := results[id]
		if data, _ := got.Objects["out"].Data.(string); got.State != engine.RunCompleted || got.Output != "done" || data != seed {
			res.failed++
			res.err = fmt.Errorf("recovered %s: state %v outcome %q, payload matches: %v", id, got.State, got.Output, data == seed)
		}
	}
	// Every stage completed before the crash and must not run again; of
	// each parked instance only its three joins run after it.
	joins := int64(len(seeds) * 3)
	if n := stageRuns.Load(); res.failed == 0 && (n != 0 || runs.Load() != joins || len(ids) != 2*deckSize) {
		res.failed = deckSize
		res.err = fmt.Errorf("recovery re-ran %d completed stages and ran %d implementations (want 0 and %d) over %d instances", n, runs.Load(), joins, len(ids))
	}
	return res
}
