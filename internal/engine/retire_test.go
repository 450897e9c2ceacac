package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The tests in this file pin the retire-once rule of the instance
// controller: each activation is retired by the first message about it
// (its result, its deadline or a cancellation), inflight counts the
// activations not yet retired, and a retired activation's late result
// changes nothing.

// parkProbe is an engine.Probe that lets a test wait for the controller
// to go idle: parked with an empty inbox, with a given number of
// activations in flight, after a given number of wake-ups.
type parkProbe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	parked   bool
	inflight int
	wakes    int
}

func newParkProbe() *parkProbe {
	p := &parkProbe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *parkProbe) Park(_ string, inflight, _ int) {
	p.mu.Lock()
	p.parked, p.inflight = true, inflight
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *parkProbe) Wake(string) {
	p.mu.Lock()
	p.parked = false
	p.wakes++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// idle blocks until the controller has woken more than after times and
// then parked with inflight activations in flight, and returns its
// wake-up count. The wait is bounded by a wall-clock watchdog.
func (p *parkProbe) idle(t *testing.T, after, inflight int) int {
	t.Helper()
	timedOut := false
	watchdog := time.AfterFunc(10*time.Second, func() {
		p.mu.Lock()
		timedOut = true
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer watchdog.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !(p.parked && p.wakes > after && p.inflight == inflight) {
		if timedOut {
			t.Fatalf("controller never parked with %d in flight after wake-up %d (parked=%v inflight=%d wakes=%d)",
				inflight, after, p.parked, p.inflight, p.wakes)
		}
		p.cond.Wait()
	}
	return p.wakes
}

// gatedAttempts is an implementation whose every attempt announces
// itself and then blocks, ignoring cancellation, until the test releases
// that attempt. before runs once the attempt is entered, before it
// blocks.
type gatedAttempts struct {
	entered [2]chan struct{}
	release [2]chan struct{}
	before  func(ctx registry.Context) error
}

func newGatedAttempts() *gatedAttempts {
	g := &gatedAttempts{}
	for k := range g.entered {
		g.entered[k] = make(chan struct{})
		g.release[k] = make(chan struct{})
	}
	return g
}

func (g *gatedAttempts) impl(ctx registry.Context) (registry.Result, error) {
	a := ctx.Attempt()
	if a >= len(g.entered) {
		return registry.Result{}, fmt.Errorf("unexpected attempt %d", a)
	}
	var err error
	if g.before != nil {
		err = g.before(ctx)
	}
	close(g.entered[a])
	<-g.release[a]
	if err != nil {
		return registry.Result{}, err
	}
	return registry.Result{Output: "done", Objects: registry.Objects{"out": val("D", fmt.Sprintf("attempt-%d", a))}}, nil
}

// waitClosed waits for ch to close, bounded by a wall-clock watchdog.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// retireScript is one task t1 bound to "gated", under a 100ms deadline
// when deadline is set. atomic gives its class an abort outcome, which
// makes it an atomic task.
func retireScript(deadline, atomic bool) string {
	impl := `"code" is "gated"`
	if deadline {
		impl += `; "deadline" is "100ms"`
	}
	abort, appAbort, appAbortSrc := "", "", ""
	if atomic {
		abort = "; abort outcome undone { }"
		appAbort = "; outcome undone { }"
		appAbortSrc = "; outcome undone { notification from { task t1 if output undone } }"
	}
	return fmt.Sprintf(`
class D;
taskclass Job
{
    inputs { input main { seed of class D } };
    outputs { outcome done { out of class D }%s }
};
taskclass App
{
    inputs { input main { seed of class D } };
    outputs { outcome done { out of class D }%s }
};
compoundtask app of taskclass App
{
    task t1 of taskclass Job
    {
        implementation { %s };
        inputs { input main { inputobject seed from { seed of task app if input main } } }
    };
    outputs { outcome done { outputobject out from { out of task t1 if output done } }%s }
};
`, abort, appAbort, impl, appAbortSrc)
}

// countKind counts the events of kind for task.
func countKind(events []engine.Event, task string, kind engine.EventKind) int {
	n := 0
	for _, ev := range events {
		if ev.Task == task && ev.Kind == kind {
			n++
		}
	}
	return n
}

// seedObject commits v as the state of the persistent object id.
func seedObject(t *testing.T, r *rig, id store.ID, v string) *persist.Object {
	t.Helper()
	obj := r.preg.Object(id)
	tx := r.mgr.Begin()
	if err := obj.Set(tx, v); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return obj
}

// peekString reads the committed state of obj.
func peekString(t *testing.T, obj *persist.Object) string {
	t.Helper()
	var v string
	if err := obj.Peek(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// runAbandonedDeadline drives the deadline scenario: attempt 0 ignores
// its deadline and is retried; it is released while the retry runs,
// which must change nothing; then the retry is released and completes
// the run. check runs after each step.
func runAbandonedDeadline(t *testing.T, r *rig, clock *timers.FakeClock, p *parkProbe, g *gatedAttempts, atomic bool, check func(step string)) {
	t.Helper()
	inst := r.run(t, retireScript(true, atomic), "retire", "main", registry.Objects{"seed": val("D", "s")})
	waitClosed(t, g.entered[0], "attempt 0")
	clock.Advance(150 * time.Millisecond)
	// The retry's deadline is armed before its goroutine starts, so once
	// it is entered, no further advance can leave it behind.
	waitClosed(t, g.entered[1], "the retry")
	wakes := p.idle(t, 0, 1)
	check("retried")

	// The abandoned attempt returns: its late result is the only input,
	// so the controller's next wake-up is for it.
	close(g.release[0])
	p.idle(t, wakes, 1)
	if st := inst.Status(); st != engine.StatusRunning {
		t.Fatalf("status %v after the abandoned attempt returned, want running (events: %v)", st, inst.Events())
	}
	if n := countKind(inst.Events(), "app/t1", engine.EventTaskCompleted); n != 0 {
		t.Fatalf("the abandoned attempt's late result completed t1 (events: %v)", inst.Events())
	}
	check("late result dropped")

	close(g.release[1])
	res := waitResult(t, inst)
	if res.Output != "done" || res.Objects["out"].Data != "attempt-1" {
		t.Fatalf("result %s %v, want done with the retry's attempt-1", res.Output, res.Objects)
	}
	p.idle(t, 0, 0)
	if q := inst.QueuedWork(); q != 0 {
		t.Fatalf("QueuedWork = %d after completion, want 0", q)
	}
	if n := countKind(inst.Events(), "app/t1", engine.EventTaskRetried); n != 1 {
		t.Fatalf("%d retries, want 1 (events: %v)", n, inst.Events())
	}
	check("completed")
}

// TestDeadlineAbandonedAttemptIsRetiredOnce: an attempt that ignores its
// deadline is retried; releasing the abandoned attempt while the retry
// runs does not complete the run, the run completes with the retry's
// result, and inflight returns to 0.
func TestDeadlineAbandonedAttemptIsRetiredOnce(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	p := newParkProbe()
	r := newRig(t, engine.Config{Clock: clock, Probe: p})
	g := newGatedAttempts()
	r.impls.Bind("gated", g.impl)
	runAbandonedDeadline(t, r, clock, p, g, false, func(string) {})
}

// TestDeadlineAbandonedAtomicAttemptWritesNothing: the same for an
// atomic task. The abandoned attempt's write is discarded when the
// deadline retires it, so the retry can take the object, and only the
// retry's write becomes visible.
func TestDeadlineAbandonedAtomicAttemptWritesNothing(t *testing.T) {
	clock := timers.NewFakeClock(epoch)
	p := newParkProbe()
	r := newRig(t, engine.Config{Clock: clock, Probe: p})
	obj := seedObject(t, r, "app/state", "seed")
	g := newGatedAttempts()
	g.before = func(ctx registry.Context) error {
		if ctx.Txn() == nil {
			return errors.New("atomic task got no transaction")
		}
		return obj.Set(ctx.Txn(), fmt.Sprintf("attempt-%d", ctx.Attempt()))
	}
	r.impls.Bind("gated", g.impl)
	runAbandonedDeadline(t, r, clock, p, g, true, func(step string) {
		want := "seed"
		if step == "completed" {
			want = "attempt-1"
		}
		if got := peekString(t, obj); got != want {
			t.Fatalf("%s: object holds %q, want %q", step, got, want)
		}
	})
}

// TestAbortTaskLateResultLeavesOneAbort: AbortTask retires the live
// activation at once; its implementation returning later neither
// completes the task nor aborts it a second time, and its transaction
// stays aborted.
func TestAbortTaskLateResultLeavesOneAbort(t *testing.T) {
	p := newParkProbe()
	r := newRig(t, engine.Config{Probe: p})
	obj := seedObject(t, r, "app/state", "seed")
	g := newGatedAttempts()
	g.before = func(ctx registry.Context) error { return obj.Set(ctx.Txn(), "written") }
	r.impls.Bind("gated", g.impl)
	inst := r.run(t, retireScript(false, true), "abort-late", "main", registry.Objects{"seed": val("D", "s")})
	waitClosed(t, g.entered[0], "the activation")
	if err := inst.AbortTask("app/t1", ""); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, inst); res.Output != "undone" {
		t.Fatalf("outcome %q, want undone", res.Output)
	}
	wakes := p.idle(t, 0, 0)

	close(g.release[0])
	p.idle(t, wakes, 0)
	events := inst.Events()
	if n := countKind(events, "app/t1", engine.EventTaskAborted); n != 1 {
		t.Fatalf("%d aborts of t1, want 1 (events: %v)", n, events)
	}
	if n := countKind(events, "app/t1", engine.EventTaskCompleted); n != 0 {
		t.Fatalf("the late result completed t1 (events: %v)", events)
	}
	if got := peekString(t, obj); got != "seed" {
		t.Fatalf("object holds %q after the abort, want seed", got)
	}
}

// TestStopAbortsLateAtomicActivation: Stop does not wait for an
// implementation that ignores cancellation; when it returns later, its
// post is refused and its transaction ends aborted, so its write never
// becomes visible and nothing is left queued.
func TestStopAbortsLateAtomicActivation(t *testing.T) {
	r := newRig(t, engine.Config{})
	obj := seedObject(t, r, "app/state", "seed")
	g := newGatedAttempts()
	var tx *txn.Txn // written before entered closes, read after
	g.before = func(ctx registry.Context) error {
		tx = ctx.Txn()
		return obj.Set(tx, "written")
	}
	returned := make(chan struct{})
	r.impls.Bind("gated", func(ctx registry.Context) (registry.Result, error) {
		defer close(returned)
		return g.impl(ctx)
	})
	inst := r.run(t, retireScript(false, true), "stop-late", "main", registry.Objects{"seed": val("D", "s")})
	waitClosed(t, g.entered[0], "the activation")
	inst.Stop()
	close(g.release[0])
	waitClosed(t, returned, "the implementation to return")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := inst.Wait(ctx); !errors.Is(err, engine.ErrStopped) {
		t.Fatalf("wait after stop: %v, want ErrStopped", err)
	}
	if st := tx.Status(); st != txn.Aborted {
		t.Fatalf("transaction %s after stop, want aborted", st)
	}
	if q := inst.QueuedWork(); q != 0 {
		t.Fatalf("QueuedWork = %d after stop, want 0: a post after Stop must be refused", q)
	}
	if got := peekString(t, obj); got != "seed" {
		t.Fatalf("object holds %q, want seed", got)
	}
}

// TestOneGoroutinePerActivation: N gated activations in flight cost N
// goroutines, not 2N.
func TestOneGoroutinePerActivation(t *testing.T) {
	const n = 16
	r := newRig(t, engine.Config{})
	entered := make(chan struct{}, n+1)
	release := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		entered <- struct{}{}
		<-release
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
	inst, err := r.eng.Instantiate("fan", workload.MustCompile("fan", workload.FanIn(n)), "")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d activations started", k, n)
		}
	}
	rise := runtime.NumGoroutine() - before
	close(release)
	waitResult(t, inst)
	t.Logf("%d activations in flight: %d more goroutines", n, rise)
	if rise > n+n/2 {
		t.Fatalf("%d activations in flight cost %d goroutines, want about %d (one each)", n, rise, n)
	}
}
