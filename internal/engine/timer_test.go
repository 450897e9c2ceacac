package engine_test

import (
	"context"
	"fmt"
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

// --- First-class delays: the "delay" implementation property ----------

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// delayScript holds a single first-class delay task: app seeds it, it
// fires after 5s, echoing d through.
const delayScript = `
class D;

taskclass TStage
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};

taskclass App
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};

compoundtask app of taskclass App
{
    task t1 of taskclass TStage
    {
        implementation { "delay" is "5s" };
        inputs { input main { inputobject d from { d of task app if input main } } }
    };
    outputs { outcome done { outputobject d from { d of task t1 if output done } } }
};
`

func waitEventKind(t *testing.T, inst *engine.Instance, kind engine.EventKind) engine.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ev, err := inst.WaitEvent(ctx, func(e engine.Event) bool { return e.Kind == kind })
	if err != nil {
		t.Fatalf("wait for %v: %v (events: %v)", kind, err, inst.Events())
	}
	return ev
}

func TestDelayTaskFiresAtAbsoluteDeadline(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	r := newRig(t, engine.Config{Clock: clock})
	inst := r.run(t, delayScript, "delay-1", "main", registry.Objects{"d": val("D", "x")})

	armed := waitEventKind(t, inst, engine.EventTimerArmed)
	if want := epoch.Add(5 * time.Second); !armed.Deadline.Equal(want) {
		t.Fatalf("armed deadline = %v, want %v", armed.Deadline, want)
	}
	// Just before the deadline nothing may fire.
	clock.Advance(4999 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if st := inst.Status(); st != engine.StatusRunning {
		t.Fatalf("status %v before the deadline", st)
	}
	clock.Advance(time.Millisecond)
	res := waitResult(t, inst)
	if res.Output != "done" || res.Objects["d"].Data != "x" {
		t.Fatalf("result = %+v, want done echoing d=x", res)
	}
	fired := eventsByKind(inst.Events(), engine.EventTimerFired)
	if len(fired) != 1 {
		t.Fatalf("timer fired %d times, want exactly once", len(fired))
	}
}

// TestDelayCrashRecoveryAbsoluteDeadline is the regression test for the
// crashed-over-delay bug class: the timer record survives the crash and
// recovery re-arms it at the ORIGINAL absolute deadline — the remaining
// 6s of a 10s delay, not a fresh 10s.
func TestDelayCrashRecoveryAbsoluteDeadline(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	st := store.NewMemStore()

	src := `
class D;
taskclass TStage
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};
taskclass App
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};
compoundtask app of taskclass App
{
    task t1 of taskclass TStage
    {
        implementation { "delay" is "10s" };
        inputs { input main { inputobject d from { d of task app if input main } } }
    };
    outputs { outcome done { outputobject d from { d of task t1 if output done } } }
};
`
	// Phase 1: start the delay, then crash 4s in.
	preg1 := persist.NewRegistry(st, txn.NewManager(st), nil)
	eng1 := engine.New(preg1, registry.New(), engine.Config{Clock: clock, VerifyScheduler: true})
	schema := sema.MustCompileSource("delay.wf", []byte(src))
	inst1, err := eng1.Instantiate("crashdelay", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst1.Start("main", registry.Objects{"d": val("D", "x")}); err != nil {
		t.Fatal(err)
	}
	waitEventKind(t, inst1, engine.EventTimerArmed)
	clock.Advance(4 * time.Second)
	eng1.Close() // the crash: controller gone, store survives

	// Phase 2: recover on a fresh engine over the same store and clock.
	preg2 := persist.NewRegistry(st, txn.NewManager(st), nil)
	if _, err := preg2.Recover(); err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(preg2, registry.New(), engine.Config{Clock: clock, VerifyScheduler: true})
	t.Cleanup(eng2.Close)
	inst2, err := eng2.Recover("crashdelay", sema.CompileSource)
	if err != nil {
		t.Fatal(err)
	}
	armed := waitEventKind(t, inst2, engine.EventTimerArmed)
	if want := epoch.Add(10 * time.Second); !armed.Deadline.Equal(want) {
		t.Fatalf("re-armed deadline = %v, want the original %v", armed.Deadline, want)
	}
	// 9.9s after the original start: 100ms short of the deadline. A
	// restarted-from-zero delay would need until t=14s.
	clock.Advance(5900 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if st := inst2.Status(); st != engine.StatusRunning {
		t.Fatalf("status %v at t=9.9s: fired too early", st)
	}
	clock.Advance(100 * time.Millisecond)
	res := waitResult(t, inst2)
	if res.Output != "done" {
		t.Fatalf("result = %+v", res)
	}
	if n := len(eventsByKind(inst2.Events(), engine.EventTimerFired)); n != 1 {
		t.Fatalf("timer fired %d times after recovery, want exactly once", n)
	}
	if n := len(eventsByKind(inst1.Events(), engine.EventTimerFired)); n != 0 {
		t.Fatalf("timer fired %d times before the crash", n)
	}
	// The fire deleted its durable record.
	if ids, _ := st.List("inst/crashdelay/timer/"); len(ids) != 0 {
		t.Fatalf("timer records left after fire: %v", ids)
	}
}

// --- Timeout input sets built from first-class delays ------------------

// raceScript: consumer prefers the "normal" set (declared first) over
// the "timeout" set; both producers are delay tasks.
const raceScript = `
class D;
class Tick;

taskclass Producer
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};

taskclass Timer
{
    inputs { input main { d of class D } };
    outputs { outcome expired { d of class D } }
};

taskclass Consumer
{
    inputs
    {
        input normal { d of class D };
        input timeout { d of class D }
    };
    outputs { outcome gotValue { }; outcome timedOut { } }
};

taskclass App
{
    inputs { input main { d of class D } };
    outputs { outcome ok { }; outcome late { } }
};

compoundtask app of taskclass App
{
    task slow of taskclass Producer
    {
        implementation { "delay" is "SLOW" };
        inputs { input main { inputobject d from { d of task app if input main } } }
    };
    task timer of taskclass Timer
    {
        implementation { "delay" is "TIMEOUT"; "outcome" is "expired" };
        inputs { input main { inputobject d from { d of task app if input main } } }
    };
    task consumer of taskclass Consumer
    {
        implementation { "code" is "consume" };
        inputs
        {
            input normal { inputobject d from { d of task slow if output done } };
            input timeout { inputobject d from { d of task timer if output expired } }
        }
    };
    outputs
    {
        outcome ok { notification from { task consumer if output gotValue } };
        outcome late { notification from { task consumer if output timedOut } }
    }
};
`

func bindConsumer(impls *registry.Registry) {
	impls.Bind("consume", func(ctx registry.Context) (registry.Result, error) {
		if ctx.InputSet() == "normal" {
			return registry.Result{Output: "gotValue"}, nil
		}
		return registry.Result{Output: "timedOut"}, nil
	})
}

func raceSrc(slow, timeout string) string {
	src := raceScript
	src = replaceOne(src, "SLOW", slow)
	src = replaceOne(src, "TIMEOUT", timeout)
	return src
}

func replaceOne(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

func TestDelayTimeoutSetWins(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	r := newRig(t, engine.Config{Clock: clock})
	bindConsumer(r.impls)
	inst := r.run(t, raceSrc("10s", "50ms"), "timeout-wins", "main", registry.Objects{"d": val("D", 0)})
	clock.Advance(50 * time.Millisecond)
	res := waitResult(t, inst)
	if res.Output != "late" {
		t.Fatalf("outcome = %q, want late (timeout fired first)", res.Output)
	}
}

func TestDelayNormalSetWins(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	r := newRig(t, engine.Config{Clock: clock})
	bindConsumer(r.impls)
	inst := r.run(t, raceSrc("50ms", "10s"), "normal-wins", "main", registry.Objects{"d": val("D", 0)})
	clock.Advance(50 * time.Millisecond)
	res := waitResult(t, inst)
	if res.Output != "ok" {
		t.Fatalf("outcome = %q, want ok (normal input arrived first)", res.Output)
	}
}

// TestDelayRaceDeterministic is the satellite determinism property: when
// a timer and a "normal" input become available at the SAME instant, the
// outcome is decided by declaration order, every time. Both producers
// are delays with identical deadlines; the wheel fires them in arm order
// (schema order), and the consumer's first-declared set wins.
func TestDelayRaceDeterministic(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		clock := timers.NewFakeClock(epoch)
		r := newRig(t, engine.Config{Clock: clock})
		bindConsumer(r.impls)
		inst := r.run(t, raceSrc("1s", "1s"), "tie", "main", registry.Objects{"d": val("D", 0)})
		// Wait until both delays are armed, then release the tie.
		waitBothArmed(t, inst)
		clock.Advance(time.Second)
		res := waitResult(t, inst)
		if res.Output != "ok" {
			t.Fatalf("trial %d: outcome = %q, want ok every time (declaration order)", trial, res.Output)
		}
		inst.Stop()
	}
}

func waitBothArmed(t *testing.T, inst *engine.Instance) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seen := 0
	_, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		if e.Kind == engine.EventTimerArmed {
			seen++
		}
		return seen == 2
	})
	if err != nil {
		t.Fatalf("both delays armed: %v (events: %v)", err, inst.Events())
	}
}

// --- Aborting and repeating delay runs ---------------------------------

func TestAbortPendingDelay(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	r := newRig(t, engine.Config{Clock: clock})
	inst := r.run(t, delayScript, "abort-delay", "main", registry.Objects{"d": val("D", "x")})
	waitEventKind(t, inst, engine.EventTimerArmed)
	if err := inst.AbortTask("app/t1", ""); err != nil {
		t.Fatalf("abort: %v", err)
	}
	waitEventKind(t, inst, engine.EventTaskAborted)
	// A Snapshot round trip serialises behind the abort's evaluate+flush,
	// so the record deletion is durable before we look.
	if _, err := inst.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The record is gone and advancing the clock must not fire anything.
	if ids, _ := r.st.List("inst/abort-delay/timer/"); len(ids) != 0 {
		t.Fatalf("timer records left after abort: %v", ids)
	}
	clock.Advance(time.Minute)
	time.Sleep(20 * time.Millisecond)
	if n := len(eventsByKind(inst.Events(), engine.EventTimerFired)); n != 0 {
		t.Fatalf("aborted delay fired %d times", n)
	}
}

// TestDelayPerTransitionAblation runs the delay path under the legacy
// per-transition persistence discipline, which must stay equivalent.
func TestDelayPerTransitionAblation(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	r := newRig(t, engine.Config{Clock: clock, PersistPerTransition: true})
	inst := r.run(t, delayScript, "delay-ptx", "main", registry.Objects{"d": val("D", "x")})
	waitEventKind(t, inst, engine.EventTimerArmed)
	clock.Advance(5 * time.Second)
	res := waitResult(t, inst)
	if res.Output != "done" {
		t.Fatalf("result = %+v", res)
	}
	if ids, _ := r.st.List("inst/delay-ptx/timer/"); len(ids) != 0 {
		t.Fatalf("timer records left: %v", ids)
	}
}

// TestDelayCrashRecoveryProperty crashes a timer chain at random points
// (real clock, short delays) and checks the temporal invariants across
// recovery: the instance completes, no engine life fires one task's
// timer twice, and a task whose completion was durable before the crash
// never re-fires after it.
func TestDelayCrashRecoveryProperty(t *testing.T) {
	const chainLen = 4
	src := buildDelayChain(chainLen, "20ms")
	for trial := 0; trial < 6; trial++ {
		st := store.NewMemStore()
		preg1 := persist.NewRegistry(st, txn.NewManager(st), nil)
		eng1 := engine.New(preg1, registry.New(), engine.Config{VerifyScheduler: true})
		schema := sema.MustCompileSource("chain.wf", []byte(src))
		inst1, err := eng1.Instantiate("prop", schema, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst1.Start("main", registry.Objects{"d": val("D", "x")}); err != nil {
			t.Fatal(err)
		}
		// Crash somewhere inside the ~80ms the chain needs.
		time.Sleep(time.Duration(5+trial*13) * time.Millisecond)
		eng1.Close()
		firesBefore := fireCountByTask(inst1.Events())

		preg2 := persist.NewRegistry(st, txn.NewManager(st), nil)
		if _, err := preg2.Recover(); err != nil {
			t.Fatal(err)
		}
		eng2 := engine.New(preg2, registry.New(), engine.Config{VerifyScheduler: true})
		inst2, err := eng2.Recover("prop", sema.CompileSource)
		if err != nil {
			eng2.Close()
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		res := waitResult(t, inst2)
		if res.Output != "done" {
			t.Fatalf("trial %d: outcome %q", trial, res.Output)
		}
		firesAfter := fireCountByTask(inst2.Events())
		for task, n := range firesBefore {
			if n > 1 {
				t.Fatalf("trial %d: %s fired %d times before the crash", trial, task, n)
			}
		}
		for task, n := range firesAfter {
			if n > 1 {
				t.Fatalf("trial %d: %s fired %d times after recovery", trial, task, n)
			}
		}
		// A fire whose terminal state became durable before the crash
		// must not repeat: recovery re-arms only Executing runs with a
		// surviving record, so such a task shows neither an armed nor a
		// fired event in its second life.
		for task := range firesBefore {
			rearmed := false
			for _, ev := range inst2.Events() {
				if ev.Kind == engine.EventTimerArmed && ev.Task == task {
					rearmed = true
				}
			}
			if !rearmed && firesAfter[task] > 0 {
				t.Fatalf("trial %d: %s completed durably pre-crash but re-fired post-crash", trial, task)
			}
		}
		eng2.Close()
	}
}

func buildDelayChain(n int, delay string) string {
	src := `
class D;
taskclass TStage
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};
taskclass App
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};
compoundtask app of taskclass App
{`
	prev := ""
	for i := 1; i <= n; i++ {
		from := "d of task app if input main"
		if prev != "" {
			from = "d of task " + prev + " if output done"
		}
		src += `
    task t` + itoa(i) + ` of taskclass TStage
    {
        implementation { "delay" is "` + delay + `" };
        inputs { input main { inputobject d from { ` + from + ` } } }
    };`
		prev = "t" + itoa(i)
	}
	src += `
    outputs { outcome done { outputobject d from { d of task ` + prev + ` if output done } } }
};
`
	return src
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func fireCountByTask(events []engine.Event) map[string]int {
	out := make(map[string]int)
	for _, e := range events {
		if e.Kind == engine.EventTimerFired {
			out[e.Task]++
		}
	}
	return out
}

// --- Activation deadlines on the wheel ---------------------------------

// TestDeadlinePropertyOnWheel pins that the "deadline" implementation
// property (now a wheel entry) still bounds activations: a blocked
// implementation is failed over to retries, then the abortless class
// fails.
func TestDeadlinePropertyOnWheel(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	r := newRig(t, engine.Config{Clock: clock, MaxRetries: 1})
	src := `
class D;
taskclass Stuck
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};
taskclass App
{
    inputs { input main { d of class D } };
    outputs { outcome done { d of class D } }
};
compoundtask app of taskclass App
{
    task t1 of taskclass Stuck
    {
        implementation { "code" is "block"; "deadline" is "100ms" };
        inputs { input main { inputobject d from { d of task app if input main } } }
    };
    outputs { outcome done { outputobject d from { d of task t1 if output done } } }
};
`
	r.impls.Bind("block", func(ctx registry.Context) (registry.Result, error) {
		<-ctx.Done()
		return registry.Result{}, context.Canceled
	})
	inst := r.run(t, src, "deadline-1", "main", registry.Objects{"d": val("D", 0)})
	// First activation times out, is retried once, times out again.
	clock.Advance(150 * time.Millisecond)
	waitEventKind(t, inst, engine.EventTaskRetried)
	// The retry event is emitted before the retried activation arms its
	// deadline; advancing in between would arm it past the advance.
	for start := time.Now(); r.eng.Timers().Pending() != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("retried activation never armed its deadline")
		}
	}
	clock.Advance(150 * time.Millisecond)
	waitEventKind(t, inst, engine.EventTaskFailed)
}
