package engine_test

import (
	"context"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/workload"
)

// The tests in this file pin what sharing one compiled schema — and its
// evaluation plan — among instances may not change: a live
// reconfiguration of one instance works on its own clone while its
// siblings run on, and waiters never miss settlement now that the
// wake-up channel exists only while someone waits.

// shareSrc is a chain t1 -> t2 -> t3 with a spare branch off t1 that
// nothing depends on, so a reconfiguration may remove it.
const shareSrc = `
class Data;

taskclass Stage
{
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
};

taskclass App
{
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
};

compoundtask app of taskclass App
{
    task t1 of taskclass Stage
    {
        implementation { "code" is "gate" };
        inputs { input main { inputobject in from { seed of task app if input main } } }
    };
    task t2 of taskclass Stage
    {
        implementation { "code" is "stage" };
        inputs { input main { inputobject in from { out of task t1 if output done } } }
    };
    task t3 of taskclass Stage
    {
        implementation { "code" is "stage" };
        inputs { input main { inputobject in from { out of task t2 if output done } } }
    };
    task spare of taskclass Stage
    {
        implementation { "code" is "stage" };
        inputs { input main { inputobject in from { out of task t1 if output done } } }
    };
    outputs
    {
        outcome done { outputobject out from { out of task t3 if output done } }
    }
};
`

// addAfterT1 adds a stage reading t1's output to shareSrc's root.
var addAfterT1 = &engine.AddTaskOp{ScopePath: "app", Fragment: `
task added of taskclass Stage
{
    implementation { "code" is "stage" };
    inputs { input main { inputobject in from { out of task t1 if output done } } }
}`}

// gates holds, per instance ID, a channel the "gate" implementation
// waits on; instances without one pass straight through.
type gates struct {
	mu sync.Mutex
	ch map[string]chan struct{}
}

func (g *gates) add(id string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(map[string]chan struct{})
	}
	c := make(chan struct{})
	g.ch[id] = c
	return c
}

func (g *gates) bind(impls *registry.Registry) {
	impls.Bind("gate", func(ctx registry.Context) (registry.Result, error) {
		g.mu.Lock()
		c := g.ch[ctx.Instance()]
		g.mu.Unlock()
		if c != nil {
			select {
			case <-c:
			case <-ctx.Done():
				return registry.Result{}, context.Canceled
			}
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
}

// shareRun is what a sibling's run may not let a reconfiguration change.
type shareRun struct {
	result engine.Result
	paths  []string
	scans  int64
}

// runToQuiescence starts inst, waits until every task in want has
// completed, and returns its result, snapshot order and scan count.
func runToQuiescence(ctx context.Context, inst *engine.Instance, want ...string) (shareRun, error) {
	if err := inst.Start("main", workload.Seed()); err != nil {
		return shareRun{}, err
	}
	res, err := inst.Wait(ctx)
	if err != nil {
		return shareRun{}, err
	}
	for _, task := range want {
		if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
			return e.Kind == engine.EventTaskCompleted && e.Task == task
		}); err != nil {
			return shareRun{}, err
		}
	}
	rows, err := inst.Snapshot() // round trip: the last drain has ended
	if err != nil {
		return shareRun{}, err
	}
	out := shareRun{result: res, scans: inst.Scans()}
	for _, row := range rows {
		out.paths = append(out.paths, row.Path)
	}
	return out, nil
}

// TestSharedSchemaSurvivesLiveReconfiguration runs many instances of one
// compiled schema concurrently while one of them is reconfigured live
// (a task added, another removed): the siblings' evaluation order, scan
// counts and results match an undisturbed run, the shared schema and
// its plan are untouched, and the added task starts on the reconfigured
// instance.
func TestSharedSchemaSurvivesLiveReconfiguration(t *testing.T) {
	const siblings = 12
	r := newRig(t, engine.Config{})
	var g gates
	g.bind(r.impls)
	workload.Bind(r.impls)
	schema := workload.MustCompile("share.wf", shareSrc)
	root := schema.Tasks[0]
	plan := root.Plan()
	wantPaths := append([]string(nil), plan.Paths...)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	refInst, err := r.eng.Instantiate("ref", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runToQuiescence(ctx, refInst, "app/spare")
	if err != nil {
		t.Fatal(err)
	}

	release := g.add("reconf")
	reconf, err := r.eng.Instantiate("reconf", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := reconf.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	if _, err := reconf.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskStarted && e.Task == "app/t1"
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	runs := make([]shareRun, siblings)
	for k := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := r.eng.Instantiate("sib-"+strconv.Itoa(k), schema, "")
			if err == nil {
				runs[k], err = runToQuiescence(ctx, inst, "app/spare")
			}
			if err != nil {
				t.Errorf("sibling %d: %v", k, err)
			}
		}()
	}
	if err := reconf.Reconfigure(addAfterT1, &engine.RemoveTaskOp{ScopePath: "app", Name: "spare"}); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()

	for k, got := range runs {
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("sibling %d: %+v, undisturbed run %+v", k, got, ref)
		}
	}
	if res, err := reconf.Wait(ctx); err != nil || res.Output != "done" {
		t.Fatalf("reconfigured instance: %+v, %v", res, err)
	}
	if _, err := reconf.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskStarted && e.Task == "app/added"
	}); err != nil {
		t.Fatalf("added task never started: %v", err)
	}
	if got := reconf.Schema().Tasks[0].Plan().Paths; !reflect.DeepEqual(got, []string{"app", "app/t1", "app/t2", "app/t3", "app/added"}) {
		t.Errorf("reconfigured plan order %v", got)
	}
	if root.Plan() != plan || !reflect.DeepEqual(plan.Paths, wantPaths) {
		t.Errorf("shared plan changed: %v, want %v", root.Plan().Paths, wantPaths)
	}
	if schema.Lookup("app/spare") == nil || schema.Lookup("app/added") != nil {
		t.Error("the reconfiguration changed the shared schema")
	}
}

// TestConcurrentWaitersSeeSettlement: waiters begun before the last
// event, racing it, and after it all see the instance settle.
func TestConcurrentWaitersSeeSettlement(t *testing.T) {
	const rounds, waiters = 20, 8
	r := newRig(t, engine.Config{Ephemeral: true})
	var g gates
	g.bind(r.impls)
	workload.Bind(r.impls)
	schema := workload.MustCompile("share.wf", shareSrc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for round := 0; round < rounds; round++ {
		id := "w-" + strconv.Itoa(round)
		release := g.add(id)
		inst, err := r.eng.Instantiate(id, schema, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wait := func() {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if res, err := inst.Wait(ctx); err != nil || res.Output != "done" {
					t.Errorf("%s: Wait = %+v, %v", id, res, err)
				}
			}()
			go func() {
				defer wg.Done()
				if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
					return e.Kind == engine.EventInstanceCompleted
				}); err != nil {
					t.Errorf("%s: WaitEvent: %v", id, err)
				}
			}()
		}
		for k := 0; k < waiters; k++ {
			wait()
		}
		close(release)
		for k := 0; k < waiters; k++ {
			wait()
		}
		wg.Wait()
		wait() // settled: returns at once
		wg.Wait()
		inst.Stop()
	}
}
