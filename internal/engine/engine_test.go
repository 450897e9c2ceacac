package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/scripts"
	"repro/internal/store"
	"repro/internal/txn"
)

// rig bundles an engine with its substrate for tests.
type rig struct {
	st    *store.MemStore
	mgr   *txn.Manager
	preg  *persist.Registry
	impls *registry.Registry
	eng   *engine.Engine
}

func newRig(t *testing.T, cfg engine.Config) *rig {
	t.Helper()
	st := store.NewMemStore()
	mgr := txn.NewManager(st)
	preg := persist.NewRegistry(st, mgr, nil)
	impls := registry.New()
	eng := engine.New(preg, impls, cfg)
	// Every engine test doubles as a differential scheduler test: after
	// each dirty-set drain the full-rescan oracle asserts the same fixed
	// point was reached.
	engine.VerifyScheduler(eng)
	t.Cleanup(eng.Close)
	return &rig{st: st, mgr: mgr, preg: preg, impls: impls, eng: eng}
}

func (r *rig) run(t *testing.T, src, instanceID, inputSet string, inputs registry.Objects) *engine.Instance {
	t.Helper()
	schema := sema.MustCompileSource(instanceID+".wf", []byte(src))
	inst, err := r.eng.Instantiate(instanceID, schema, "")
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if err := inst.Start(inputSet, inputs); err != nil {
		t.Fatalf("start: %v", err)
	}
	return inst
}

func waitResult(t *testing.T, inst *engine.Instance) engine.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := inst.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v (events: %v)", err, inst.Events())
	}
	// Wait returns when the terminal status is set, and the controller
	// emits instance-completed after that in the same turn: a round trip
	// through the controller orders the caller's Events() after it.
	_, _ = inst.Snapshot()
	return res
}

func val(class string, data any) registry.Value { return registry.Value{Class: class, Data: data} }

func eventsByKind(events []engine.Event, kind engine.EventKind) []engine.Event {
	var out []engine.Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// --- Fig. 1: the dependency diamond ---

func bindDiamond(impls *registry.Registry) {
	pass := func(in, out string) registry.Func {
		return func(ctx registry.Context) (registry.Result, error) {
			v := ctx.Inputs()[in]
			return registry.Result{Output: "done", Objects: registry.Objects{out: v}}, nil
		}
	}
	impls.Bind("produce", pass("seed", "d"))
	impls.Bind("stage", pass("in", "d"))
	impls.Bind("join", func(ctx registry.Context) (registry.Result, error) {
		l := ctx.Inputs()["left"].Data.(string)
		r := ctx.Inputs()["right"].Data.(string)
		return registry.Result{Output: "done", Objects: registry.Objects{"d": val("Data", l+"+"+r)}}, nil
	})
}

func TestFig1DiamondCompletes(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindDiamond(r.impls)
	inst := r.run(t, scripts.Fig1Diamond, "diamond-1", "main", registry.Objects{"seed": val("Data", "s")})
	res := waitResult(t, inst)
	if res.Output != "done" {
		t.Fatalf("outcome = %q, want done", res.Output)
	}
	if got := res.Objects["d"].Data.(string); got != "s+s" {
		t.Fatalf("joined = %q, want s+s (both branches fed t4)", got)
	}
	// Dependency order: t1 before t2 and t3, which are before t4.
	started := map[string]int{}
	for _, e := range eventsByKind(inst.Events(), engine.EventTaskStarted) {
		started[e.Task] = e.Seq
	}
	for _, pair := range [][2]string{
		{"diamond/t1", "diamond/t2"},
		{"diamond/t1", "diamond/t3"},
		{"diamond/t2", "diamond/t4"},
		{"diamond/t3", "diamond/t4"},
	} {
		if started[pair[0]] >= started[pair[1]] {
			t.Errorf("start order violated: %s (#%d) should precede %s (#%d)", pair[0], started[pair[0]], pair[1], started[pair[1]])
		}
	}
}

func TestFig1StallWhenSourceFails(t *testing.T) {
	r := newRig(t, engine.Config{MaxRetries: 1})
	bindDiamond(r.impls)
	// t1 always fails at the system level; Producer has no abort outcome,
	// so the run fails and nothing downstream can ever start.
	r.impls.Bind("produce", func(registry.Context) (registry.Result, error) {
		return registry.Result{}, errors.New("boom")
	})
	inst := r.run(t, scripts.Fig1Diamond, "diamond-stall", "main", registry.Objects{"seed": val("Data", "s")})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := inst.Wait(ctx)
	if !errors.Is(err, engine.ErrStalled) {
		t.Fatalf("wait err = %v, want ErrStalled", err)
	}
	if got := len(eventsByKind(inst.Events(), engine.EventTaskRetried)); got != 1 {
		t.Errorf("retries = %d, want 1 (MaxRetries)", got)
	}
}

// --- Fig. 2: input sets and alternative selection ---

const fig2Script = `
class A;
class B;

taskclass Feeder
{
    inputs { input main { a of class A } };
    outputs { outcome done { x of class A; y of class A } }
};

taskclass Chooser
{
    inputs
    {
        input first { p of class A };
        input second { q of class A }
    };
    outputs { outcome done { } }
};

taskclass App
{
    inputs { input main { a of class A } };
    outputs { outcome done { } }
};

compoundtask app of taskclass App
{
    task feeder of taskclass Feeder
    {
        implementation { "code" is "feeder" };
        inputs { input main { inputobject a from { a of task app if input main } } }
    };
    task chooser of taskclass Chooser
    {
        implementation { "code" is "chooser" };
        inputs
        {
            input first
            {
                inputobject p from { x of task feeder if output done; y of task feeder if output done }
            };
            input second
            {
                inputobject q from { y of task feeder if output done }
            }
        }
    };
    outputs { outcome done { notification from { task chooser if output done } } }
};
`

func TestFig2DeterministicSelection(t *testing.T) {
	// Both input sets become satisfiable in the same instant (one feeder
	// outcome carries both objects). The first-declared set must win, and
	// within it the first-declared alternative (x, not y).
	for trial := 0; trial < 20; trial++ {
		r := newRig(t, engine.Config{})
		r.impls.Bind("feeder", registry.Fixed("done", registry.Objects{
			"x": val("A", "fromX"), "y": val("A", "fromY"),
		}))
		var mu sync.Mutex
		var chosenSet, chosenVal string
		r.impls.Bind("chooser", func(ctx registry.Context) (registry.Result, error) {
			mu.Lock()
			chosenSet = ctx.InputSet()
			if v, ok := ctx.Inputs()["p"]; ok {
				chosenVal = v.Data.(string)
			}
			mu.Unlock()
			return registry.Result{Output: "done"}, nil
		})
		inst := r.run(t, fig2Script, fmt.Sprintf("fig2-%d", trial), "main", registry.Objects{"a": val("A", "seed")})
		waitResult(t, inst)
		mu.Lock()
		set, v := chosenSet, chosenVal
		mu.Unlock()
		if set != "first" {
			t.Fatalf("trial %d: chosen set = %q, want first (declaration order)", trial, set)
		}
		if v != "fromX" {
			t.Fatalf("trial %d: chosen alternative = %q, want fromX (first available in declaration order)", trial, v)
		}
	}
}

// --- Fig. 3: state transitions ---

const fig3Script = `
class D;

taskclass Cycler
{
    inputs { input main { seed of class D } };
    outputs
    {
        outcome finished { out of class D };
        repeat outcome again { counter of class D };
        mark progress { snapshot of class D }
    }
};

taskclass App
{
    inputs { input main { seed of class D } };
    outputs { outcome finished { out of class D } }
};

compoundtask app of taskclass App
{
    task cycler of taskclass Cycler
    {
        implementation { "code" is "cycler" };
        inputs
        {
            input main
            {
                inputobject seed from
                {
                    counter of task cycler if output again;
                    seed of task app if input main
                }
            }
        }
    };
    outputs { outcome finished { outputobject out from { out of task cycler if output finished } } }
};
`

func TestFig3MarkRepeatRetryOutcome(t *testing.T) {
	r := newRig(t, engine.Config{MaxRetries: 2})
	var fails int
	var mu sync.Mutex
	r.impls.Bind("cycler", func(ctx registry.Context) (registry.Result, error) {
		n := ctx.Inputs()["seed"].Data.(int)
		mu.Lock()
		injectFail := n == 1 && fails == 0
		if injectFail {
			fails++
		}
		mu.Unlock()
		if injectFail {
			return registry.Result{}, errors.New("transient failure")
		}
		if err := ctx.Mark("progress", registry.Objects{"snapshot": val("D", n)}); err != nil {
			return registry.Result{}, err
		}
		if n < 3 {
			return registry.Result{Output: "again", Objects: registry.Objects{"counter": val("D", n+1)}}, nil
		}
		return registry.Result{Output: "finished", Objects: registry.Objects{"out": val("D", n)}}, nil
	})
	inst := r.run(t, fig3Script, "fig3", "main", registry.Objects{"seed": val("D", 0)})
	res := waitResult(t, inst)
	if res.Output != "finished" || res.Objects["out"].Data.(int) != 3 {
		t.Fatalf("result = %+v, want finished/3", res)
	}
	ev := inst.Events()
	if got := len(eventsByKind(ev, engine.EventTaskRepeated)); got != 3 {
		t.Errorf("repeats = %d, want 3 (0->1->2->3)", got)
	}
	if got := len(eventsByKind(ev, engine.EventTaskRetried)); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	// One mark per successful iteration (the retried activation marked
	// nothing because it failed before marking).
	if got := len(eventsByKind(ev, engine.EventTaskMarked)); got != 4 {
		t.Errorf("marks = %d, want 4", got)
	}
	// Repeat feedback used the repeat alternative (first in declaration
	// order once available): iterations observed seeds 1,2,3 from
	// counter.
	var repeats []int
	for _, e := range eventsByKind(ev, engine.EventTaskRepeated) {
		repeats = append(repeats, e.Objects["counter"].Data.(int))
	}
	for i, want := range []int{1, 2, 3} {
		if repeats[i] != want {
			t.Errorf("repeat %d carried counter %d, want %d", i, repeats[i], want)
		}
	}
}

func TestForcedAbortWhileWaiting(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindDiamond(r.impls)
	// Block t1 so t4 stays waiting, then force-abort t4 (Fig. 3 permits
	// aborts from the wait state, e.g. a user forcing an abort).
	release := make(chan struct{})
	r.impls.Bind("produce", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"d": val("Data", "s")}}, nil
	})
	inst := r.run(t, scripts.Fig1Diamond, "abort-wait", "main", registry.Objects{"seed": val("Data", "s")})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskWaiting && e.Task == "diamond/t4"
	}); err != nil {
		t.Fatalf("t4 never became waiting: %v", err)
	}
	if err := inst.AbortTask("diamond/t4", ""); err != nil {
		t.Fatalf("abort t4: %v", err)
	}
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	// Diamond's only outcome needs t4's output, which aborted without
	// producing one: the instance stalls (failure surfaced to the
	// application, Section 2).
	if _, err := inst.Wait(ctx2); !errors.Is(err, engine.ErrStalled) {
		t.Fatalf("wait err = %v, want ErrStalled", err)
	}
}

// --- Atomic tasks: abort means no effects ---

const atomicScript = `
class D;

taskclass Mutator
{
    inputs { input main { seed of class D } };
    outputs
    {
        outcome changed { out of class D };
        abort outcome unchanged { }
    }
};

taskclass App
{
    inputs { input main { seed of class D } };
    outputs { outcome done { }; outcome undone { } }
};

compoundtask app of taskclass App
{
    task mutator of taskclass Mutator
    {
        implementation { "code" is "mutate" };
        inputs { input main { inputobject seed from { seed of task app if input main } } }
    };
    outputs
    {
        outcome done { notification from { task mutator if output changed } };
        outcome undone { notification from { task mutator if output unchanged } }
    }
};
`

func TestAtomicTaskAbortHasNoEffects(t *testing.T) {
	r := newRig(t, engine.Config{})
	appState := r.preg.Object("app/balance")

	// Seed the application object.
	tx := r.mgr.Begin()
	if err := appState.Set(tx, 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	bindMutator := func(abort bool) {
		r.impls.Bind("mutate", func(ctx registry.Context) (registry.Result, error) {
			wtx := ctx.Txn()
			if wtx == nil {
				return registry.Result{}, errors.New("atomic task got no transaction")
			}
			var bal int
			if err := appState.Get(wtx, &bal); err != nil {
				return registry.Result{}, err
			}
			if err := appState.Set(wtx, bal+1); err != nil {
				return registry.Result{}, err
			}
			if abort {
				return registry.Result{Output: "unchanged"}, nil
			}
			return registry.Result{Output: "changed", Objects: registry.Objects{"out": val("D", bal+1)}}, nil
		})
	}

	// Run 1: the task aborts; its write must not be visible.
	bindMutator(true)
	inst := r.run(t, atomicScript, "atomic-abort", "main", registry.Objects{"seed": val("D", 0)})
	res := waitResult(t, inst)
	if res.Output != "undone" {
		t.Fatalf("outcome = %q, want undone", res.Output)
	}
	var bal int
	if err := appState.Peek(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("balance after abort = %d, want 100 (abort outcome must have no side effects)", bal)
	}

	// Run 2: the task commits; the write must be visible.
	bindMutator(false)
	inst2 := r.run(t, atomicScript, "atomic-commit", "main", registry.Objects{"seed": val("D", 0)})
	res2 := waitResult(t, inst2)
	if res2.Output != "done" {
		t.Fatalf("outcome = %q, want done", res2.Output)
	}
	if err := appState.Peek(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 101 {
		t.Fatalf("balance after commit = %d, want 101", bal)
	}
}

// --- Section 5.2: process order application ---

func bindProcessOrder(impls *registry.Registry, authorise, stock, dispatchOK bool) {
	if authorise {
		impls.Bind("refPaymentAuthorisation", registry.Fixed("authorised", registry.Objects{"paymentInfo": val("PaymentInfo", "visa")}))
	} else {
		impls.Bind("refPaymentAuthorisation", registry.Fixed("notAuthorised", nil))
	}
	if stock {
		impls.Bind("refCheckStock", registry.Fixed("stockAvailable", registry.Objects{"stockInfo": val("StockInfo", "warehouse-7")}))
	} else {
		impls.Bind("refCheckStock", registry.Fixed("stockNotAvailable", nil))
	}
	if dispatchOK {
		impls.Bind("refDispatch", registry.Fixed("dispatchCompleted", registry.Objects{"dispatchNote": val("DispatchNote", "note-1")}))
	} else {
		impls.Bind("refDispatch", registry.Fixed("dispatchFailed", nil))
	}
	impls.Bind("refPaymentCapture", registry.Fixed("done", nil))
}

func TestProcessOrderPaths(t *testing.T) {
	cases := []struct {
		name                         string
		authorise, stock, dispatchOK bool
		want                         string
	}{
		{"completed", true, true, true, "orderCompleted"},
		{"not_authorised", false, true, true, "orderCancelled"},
		{"no_stock", true, false, true, "orderCancelled"},
		{"dispatch_failed", true, true, false, "orderCancelled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, engine.Config{})
			bindProcessOrder(r.impls, tc.authorise, tc.stock, tc.dispatchOK)
			inst := r.run(t, scripts.ProcessOrder, "order-"+tc.name, "main", registry.Objects{"order": val("Order", "o-42")})
			res := waitResult(t, inst)
			if res.Output != tc.want {
				t.Fatalf("outcome = %q, want %q (events: %v)", res.Output, tc.want, inst.Events())
			}
			if tc.want == "orderCompleted" {
				if res.Objects["dispatchNote"].Data.(string) != "note-1" {
					t.Errorf("dispatchNote missing from compound outcome")
				}
			}
			if tc.name == "dispatch_failed" {
				aborted := eventsByKind(inst.Events(), engine.EventTaskAborted)
				if len(aborted) != 1 || aborted[0].Output != "dispatchFailed" {
					t.Errorf("expected exactly the dispatch abort, got %v", aborted)
				}
			}
		})
	}
}

func TestProcessOrderConcurrency(t *testing.T) {
	// paymentAuthorisation and checkStock must overlap: both started
	// before either completes (the paper runs them concurrently).
	r := newRig(t, engine.Config{})
	var mu sync.Mutex
	var bothRunning bool
	running := map[string]bool{}
	slow := func(name, output string, objs registry.Objects) registry.Func {
		return func(registry.Context) (registry.Result, error) {
			mu.Lock()
			running[name] = true
			if running["auth"] && running["stock"] {
				bothRunning = true
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			running[name] = false
			mu.Unlock()
			return registry.Result{Output: output, Objects: objs}, nil
		}
	}
	r.impls.Bind("refPaymentAuthorisation", slow("auth", "authorised", registry.Objects{"paymentInfo": val("PaymentInfo", "p")}))
	r.impls.Bind("refCheckStock", slow("stock", "stockAvailable", registry.Objects{"stockInfo": val("StockInfo", "s")}))
	r.impls.Bind("refDispatch", registry.Fixed("dispatchCompleted", registry.Objects{"dispatchNote": val("DispatchNote", "n")}))
	r.impls.Bind("refPaymentCapture", registry.Fixed("done", nil))
	inst := r.run(t, scripts.ProcessOrder, "order-conc", "main", registry.Objects{"order": val("Order", "o")})
	waitResult(t, inst)
	mu.Lock()
	defer mu.Unlock()
	if !bothRunning {
		t.Error("paymentAuthorisation and checkStock never ran concurrently")
	}
}

// --- Section 5.1: service impact application ---

func bindServiceImpact(impls *registry.Registry, corrOut, analysisOut, resolutionOut string) {
	impls.Bind("refAlarmCorrelator", registry.Fixed(corrOut, registry.Objects{"faultReport": val("FaultReport", "link-loss")}))
	impls.Bind("refServiceImpactAnalysis", registry.Fixed(analysisOut, registry.Objects{"serviceImpactReports": val("ServiceImpactReports", "impacts")}))
	impls.Bind("refServiceImpactResolution", registry.Fixed(resolutionOut, registry.Objects{"resolutionReport": val("ResolutionReport", "reroute")}))
}

func TestServiceImpactOutcomes(t *testing.T) {
	cases := []struct {
		name                 string
		corr, analysis, reso string
		want                 string
	}{
		{"resolved", "foundFault", "foundImpacts", "foundResolution", "resolved"},
		{"not_resolved", "foundFault", "foundImpacts", "foundNoResolution", "notResolved"},
		{"correlator_failure", "alarmCorrelatorFailure", "foundImpacts", "foundResolution", "serviceImpactApplicationFailure"},
		{"analysis_failure", "foundFault", "serviceImpactAnalysisFailure", "foundResolution", "serviceImpactApplicationFailure"},
		{"resolution_failure", "foundFault", "foundImpacts", "serviceImpactResolutionFailure", "serviceImpactApplicationFailure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, engine.Config{})
			bindServiceImpact(r.impls, tc.corr, tc.analysis, tc.reso)
			inst := r.run(t, scripts.ServiceImpact, "svc-"+tc.name, "main", registry.Objects{"alarmsSource": val("AlarmsSource", "net-alarms")})
			res := waitResult(t, inst)
			if res.Output != tc.want {
				t.Fatalf("outcome = %q, want %q", res.Output, tc.want)
			}
			if tc.want == "resolved" && res.Objects["resolutionReport"].Data.(string) != "reroute" {
				t.Error("resolution report not propagated to the compound outcome")
			}
		})
	}
}

// --- Section 5.3: business trip with compensation, repeat and mark ---

func bindBusinessTrip(impls *registry.Registry, offers [3]bool, hotelFailures int) *int32 {
	impls.Bind("refDataAcquisition", registry.Fixed("acquired", registry.Objects{"tripSpec": val("TripSpec", "AMS 26-29 May, < 500")}))
	for i, ok := range offers {
		name := fmt.Sprintf("refQueryAirline%d", i+1)
		if ok {
			impls.Bind(name, registry.Fixed("offer", registry.Objects{"flightOffer": val("FlightOffer", fmt.Sprintf("KL-%d", i+1))}))
		} else {
			impls.Bind(name, registry.Fixed("noOffer", nil))
		}
	}
	impls.Bind("refFlightReservation", func(ctx registry.Context) (registry.Result, error) {
		offer := ctx.Inputs()["flightOffer"].Data.(string)
		return registry.Result{Output: "reserved", Objects: registry.Objects{
			"plane": val("Plane", "plane:"+offer),
			"cost":  val("Cost", 423),
		}}, nil
	})
	var mu sync.Mutex
	remaining := hotelFailures
	var cancellations int32
	impls.Bind("refHotelReservation", func(registry.Context) (registry.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		if remaining > 0 {
			remaining--
			return registry.Result{Output: "failed"}, nil
		}
		return registry.Result{Output: "booked", Objects: registry.Objects{"hotel": val("Hotel", "Krasnapolsky")}}, nil
	})
	impls.Bind("refFlightCancellation", func(registry.Context) (registry.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		cancellations++
		return registry.Result{Output: "cancelled"}, nil
	})
	impls.Bind("refPrintTickets", registry.Fixed("printed", registry.Objects{"tickets": val("Tickets", "TK-1")}))
	return &cancellations
}

func TestBusinessTripSuccessFirstTry(t *testing.T) {
	r := newRig(t, engine.Config{})
	cancels := bindBusinessTrip(r.impls, [3]bool{true, true, true}, 0)
	inst := r.run(t, scripts.BusinessTrip, "trip-ok", "main", registry.Objects{"user": val("User", "fred")})
	res := waitResult(t, inst)
	if res.Output != "tripBooked" {
		t.Fatalf("outcome = %q, want tripBooked", res.Output)
	}
	if *cancels != 0 {
		t.Errorf("flight cancelled %d times on the happy path", *cancels)
	}
	// The mark toPay must have been released with the flight cost, before
	// the terminal outcome (early release, Fig. 8).
	ev := inst.Events()
	marks := eventsByKind(ev, engine.EventTaskMarked)
	var toPaySeq int
	for _, m := range marks {
		if m.Task == "tripReservation" && m.Output == "toPay" {
			toPaySeq = m.Seq
			if m.Objects["cost"].Data.(int) != 423 {
				t.Errorf("toPay cost = %v, want 423", m.Objects["cost"].Data)
			}
		}
	}
	if toPaySeq == 0 {
		t.Fatal("mark toPay never emitted")
	}
	completed := eventsByKind(ev, engine.EventInstanceCompleted)
	if len(completed) != 1 || toPaySeq >= completed[0].Seq {
		t.Error("toPay mark must precede instance completion")
	}
	// First-available alternative: flight offer came from queryAirline1.
	for _, e := range eventsByKind(ev, engine.EventTaskStarted) {
		if e.Task == "tripReservation/businessReservation/flightReservation" {
			// Input was flightFound mapping, whose first source is
			// queryAirline1.
		}
	}
	if res.Objects["tickets"].Data.(string) != "TK-1" {
		t.Error("tickets not propagated")
	}
}

func TestBusinessTripCompensationAndRetry(t *testing.T) {
	r := newRig(t, engine.Config{})
	cancels := bindBusinessTrip(r.impls, [3]bool{false, true, true}, 2)
	inst := r.run(t, scripts.BusinessTrip, "trip-retry", "main", registry.Objects{"user": val("User", "fred")})
	res := waitResult(t, inst)
	if res.Output != "tripBooked" {
		t.Fatalf("outcome = %q, want tripBooked (events: %v)", res.Output, inst.Events())
	}
	// Two hotel failures -> two compensating flight cancellations -> two
	// repeat iterations of businessReservation before success.
	if *cancels != 2 {
		t.Errorf("flight cancellations = %d, want 2 (compensation per failed attempt)", *cancels)
	}
	repeats := 0
	for _, e := range eventsByKind(inst.Events(), engine.EventTaskRepeated) {
		if e.Task == "tripReservation/businessReservation" {
			repeats++
		}
	}
	if repeats != 2 {
		t.Errorf("businessReservation repeats = %d, want 2", repeats)
	}
}

func TestBusinessTripNoFlight(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindBusinessTrip(r.impls, [3]bool{false, false, false}, 0)
	inst := r.run(t, scripts.BusinessTrip, "trip-nofly", "main", registry.Objects{"user": val("User", "fred")})
	res := waitResult(t, inst)
	if res.Output != "tripFailed" {
		t.Fatalf("outcome = %q, want tripFailed", res.Output)
	}
}

// --- Crash recovery ---

func TestCrashRecoveryResumesWorkflow(t *testing.T) {
	st := store.NewMemStore()

	// Engine 1: t4's implementation blocks forever; stop mid-flight.
	mgr1 := txn.NewManager(st)
	preg1 := persist.NewRegistry(st, mgr1, nil)
	impls1 := registry.New()
	bindDiamond(impls1)
	blocked := make(chan struct{})
	impls1.Bind("join", func(ctx registry.Context) (registry.Result, error) {
		close(blocked)
		<-ctx.Done()
		return registry.Result{}, errors.New("cancelled")
	})
	eng1 := engine.New(preg1, impls1, engine.Config{})
	schema := sema.MustCompileSource("diamond.wf", []byte(scripts.Fig1Diamond))
	inst1, err := eng1.Instantiate("recover-1", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst1.Start("main", registry.Objects{"seed": val("Data", "s")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("t4 never started")
	}
	inst1.Stop()
	eng1.Close()

	// Engine 2 over the same store: recovery must resume and finish.
	mgr2 := txn.NewManager(st)
	preg2 := persist.NewRegistry(st, mgr2, nil)
	if _, err := preg2.Recover(); err != nil {
		t.Fatalf("registry recover: %v", err)
	}
	impls2 := registry.New()
	bindDiamond(impls2)
	eng2 := engine.New(preg2, impls2, engine.Config{})
	defer eng2.Close()
	inst2, err := eng2.Recover("recover-1", sema.CompileSource)
	if err != nil {
		t.Fatalf("engine recover: %v", err)
	}
	res := waitResult(t, inst2)
	if res.Output != "done" || res.Objects["d"].Data.(string) != "s+s" {
		t.Fatalf("recovered result = %+v, want done/s+s", res)
	}
	// t1..t3 must NOT have re-executed: their completions were persisted.
	startedT1 := 0
	for _, e := range eventsByKind(inst2.Events(), engine.EventTaskStarted) {
		if e.Task == "diamond/t1" {
			startedT1++
		}
	}
	if startedT1 != 0 {
		t.Errorf("t1 re-executed after recovery; completed tasks must not rerun")
	}
}

// --- Dynamic reconfiguration (the paper's t5 example) ---

const t5Fragment = `
task t5 of taskclass Join
{
    implementation { "code" is "join" };
    inputs
    {
        input main
        {
            inputobject left from { d of task t2 if output done };
            inputobject right from { d of task t1 if output done }
        }
    }
};
`

func TestReconfigureAddTaskWhileRunning(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindDiamond(r.impls)
	// Hold t3 so the workflow cannot finish before we reconfigure.
	gate := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		if ctx.TaskPath() == "diamond/t3" {
			<-gate
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"d": ctx.Inputs()["in"]}}, nil
	})
	inst := r.run(t, scripts.Fig1Diamond, "reconf-1", "main", registry.Objects{"seed": val("Data", "s")})

	// Wait for t2 to complete, then add t5 depending on t2 and t1 (the
	// paper's scenario, adapted to the diamond's classes).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskCompleted && e.Task == "diamond/t2"
	}); err != nil {
		t.Fatalf("t2 never completed: %v", err)
	}
	if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "diamond", Fragment: t5Fragment}); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	// t5's dependencies are already satisfied; it should start and finish
	// while t3 is still gated.
	if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskCompleted && e.Task == "diamond/t5"
	}); err != nil {
		t.Fatalf("t5 never completed after reconfiguration: %v", err)
	}
	close(gate)
	res := waitResult(t, inst)
	if res.Output != "done" {
		t.Fatalf("outcome = %q, want done", res.Output)
	}
}

func TestReconfigureValidation(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindDiamond(r.impls)
	gate := make(chan struct{})
	defer close(gate)
	r.impls.Bind("produce", func(ctx registry.Context) (registry.Result, error) {
		<-gate
		return registry.Result{}, errors.New("cancelled")
	})
	inst := r.run(t, scripts.Fig1Diamond, "reconf-bad", "main", registry.Objects{"seed": val("Data", "s")})

	// Removing a task that others depend on must fail.
	err := inst.Reconfigure(&engine.RemoveTaskOp{ScopePath: "diamond", Name: "t1"})
	if err == nil || !errors.Is(err, core.ErrHasDependents) {
		t.Fatalf("remove depended-upon task: err = %v, want ErrHasDependents", err)
	}
	// A batch with one bad op must apply nothing (atomicity).
	err = inst.Reconfigure(
		&engine.AddTaskOp{ScopePath: "diamond", Fragment: t5Fragment},
		&engine.RemoveTaskOp{ScopePath: "diamond", Name: "no-such-task"},
	)
	if err == nil {
		t.Fatal("batch with invalid op must fail")
	}
	if got := inst.Schema().Lookup("diamond/t5"); got != nil {
		t.Error("failed batch leaked t5 into the schema (not atomic)")
	}
	// Duplicate add must fail cleanly.
	if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "diamond", Fragment: t5Fragment}); err != nil {
		t.Fatalf("valid add failed: %v", err)
	}
	if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "diamond", Fragment: t5Fragment}); err == nil {
		t.Fatal("duplicate add must fail")
	}
}

// TestReconfigureRemoveAddedTask adds a task to a running instance and
// removes it again, three times over: each removal takes the added task
// (and its run) out of the schema, and the live workflow still finishes.
func TestReconfigureRemoveAddedTask(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindDiamond(r.impls)
	gate := make(chan struct{})
	r.impls.Bind("join", func(ctx registry.Context) (registry.Result, error) {
		<-gate
		l := ctx.Inputs()["left"].Data.(string)
		return registry.Result{Output: "done", Objects: registry.Objects{"d": val("Data", l+"+"+l)}}, nil
	})
	inst := r.run(t, scripts.Fig1Diamond, "reconf-rm", "main", registry.Objects{"seed": val("Data", "s")})
	for k := 1; k <= 3; k++ {
		name := fmt.Sprintf("extra%d", k)
		frag := strings.ReplaceAll(t5Fragment, "task t5 ", "task "+name+" ")
		if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "diamond", Fragment: frag}); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		if err := inst.Reconfigure(&engine.RemoveTaskOp{ScopePath: "diamond", Name: name}); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
		if inst.Schema().Lookup("diamond/"+name) != nil {
			t.Fatalf("%s still in the schema after its removal", name)
		}
	}
	close(gate)
	if res := waitResult(t, inst); res.Output != "done" {
		t.Fatalf("outcome = %q, want done", res.Output)
	}
}

// processOrderAt starts a process-order instance whose payment
// authorisation waits on gate, so the instance stays live while a test
// reconfigures it.
func processOrderAt(t *testing.T, r *rig, id string, gate chan struct{}) *engine.Instance {
	t.Helper()
	bindProcessOrder(r.impls, true, true, true)
	r.impls.Bind("refPaymentAuthorisation", func(ctx registry.Context) (registry.Result, error) {
		<-gate
		return registry.Result{Output: "authorised", Objects: registry.Objects{"paymentInfo": val("PaymentInfo", "p")}}, nil
	})
	return r.run(t, scripts.ProcessOrder, id, "main", registry.Objects{"order": val("Order", "o")})
}

// TestAddTaskRejectsLocatedAtomicTask: a task added by reconfiguration
// cannot put an atomic class on a remote executor, where it would run
// with no transaction.
func TestAddTaskRejectsLocatedAtomicTask(t *testing.T) {
	r := newRig(t, engine.Config{})
	gate := make(chan struct{})
	defer close(gate)
	inst := processOrderAt(t, r, "add-located", gate)
	err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "processOrderApplication", Fragment: `
task remoteDispatch of taskclass Dispatch
{
    implementation { "code" is "refDispatch"; "location" is "workers" };
    inputs { input main { inputobject stockInfo from { stockInfo of task checkStock if output stockAvailable } } }
};`})
	if err == nil || !strings.Contains(err.Error(), "task remoteDispatch: taskclass Dispatch is atomic") {
		t.Fatalf("err = %v, want the atomic-location diagnostic", err)
	}
	if inst.Schema().Lookup("processOrderApplication/remoteDispatch") != nil {
		t.Error("rejected task reached the schema")
	}
}

// TestSetImplementationRejectsLocationOnAtomicTask: rebinding an atomic
// task's "location" is rejected; rebinding its "code" is not.
func TestSetImplementationRejectsLocationOnAtomicTask(t *testing.T) {
	r := newRig(t, engine.Config{})
	gate := make(chan struct{})
	defer close(gate)
	inst := processOrderAt(t, r, "set-located", gate)
	const path = "processOrderApplication/dispatch"
	err := inst.Reconfigure(&engine.SetImplementationOp{TaskPath: path, Key: "location", Value: "workers"})
	if err == nil || !strings.Contains(err.Error(), "task dispatch: taskclass Dispatch is atomic") {
		t.Fatalf("err = %v, want the atomic-location diagnostic", err)
	}
	if _, ok := inst.Schema().Lookup(path).Implementation["location"]; ok {
		t.Error("rejected location reached the schema")
	}
	if err := inst.Reconfigure(&engine.SetImplementationOp{TaskPath: path, Key: "code", Value: "refDispatch"}); err != nil {
		t.Fatalf("rebinding code: %v", err)
	}
}

// --- Online upgrade: rebinding implementations at run time ---

func TestOnlineUpgradeRebind(t *testing.T) {
	r := newRig(t, engine.Config{})
	bindDiamond(r.impls)
	gate := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		if ctx.TaskPath() == "diamond/t2" {
			<-gate
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"d": ctx.Inputs()["in"]}}, nil
	})
	inst := r.run(t, scripts.Fig1Diamond, "upgrade-1", "main", registry.Objects{"seed": val("Data", "s")})

	// While the workflow runs, upgrade "join" (t4 has not started yet: it
	// needs t2). The new version must be picked up because binding is
	// resolved at activation time.
	r.impls.Bind("join", func(ctx registry.Context) (registry.Result, error) {
		return registry.Result{Output: "done", Objects: registry.Objects{"d": val("Data", "v2")}}, nil
	})
	close(gate)
	res := waitResult(t, inst)
	if res.Objects["d"].Data.(string) != "v2" {
		t.Fatalf("join result = %v, want v2 (late binding at activation)", res.Objects["d"].Data)
	}
	if r.impls.Version("join") != 2 {
		t.Errorf("join version = %d, want 2", r.impls.Version("join"))
	}
}

// --- Deadline enforcement ---

const deadlineScript = `
class D;

taskclass Slow
{
    inputs { input main { seed of class D } };
    outputs
    {
        outcome done { };
        abort outcome tooSlow { }
    }
};

taskclass App
{
    inputs { input main { seed of class D } };
    outputs { outcome ok { }; outcome slow { } }
};

compoundtask app of taskclass App
{
    task slow of taskclass Slow
    {
        implementation { "code" is "slow"; "deadline" is "30ms" };
        inputs { input main { inputobject seed from { seed of task app if input main } } }
    };
    outputs
    {
        outcome ok { notification from { task slow if output done } };
        outcome slow { notification from { task slow if output tooSlow } }
    }
};
`

func TestDeadlineMapsToAbortOutcome(t *testing.T) {
	r := newRig(t, engine.Config{MaxRetries: 1})
	r.impls.Bind("slow", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-time.After(5 * time.Second):
			return registry.Result{Output: "done"}, nil
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
	})
	inst := r.run(t, deadlineScript, "deadline-1", "main", registry.Objects{"seed": val("D", 0)})
	res := waitResult(t, inst)
	if res.Output != "slow" {
		t.Fatalf("outcome = %q, want slow (deadline exceeded maps to abort outcome after retries)", res.Output)
	}
	if got := len(eventsByKind(inst.Events(), engine.EventTaskRetried)); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}
