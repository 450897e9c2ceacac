package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/workload"
)

// The temporal rows (S4) run on a timers.FakeClock: delays and deadlines
// are honoured on virtual time, so no test here sleeps.

var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// waitNth waits for the n-th event of kind k.
func waitNth(t *testing.T, inst *engine.Instance, k engine.EventKind, n int) engine.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), settle)
	defer cancel()
	seen := 0
	ev, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		if e.Kind == k {
			seen++
		}
		return seen == n
	})
	if err != nil {
		t.Fatalf("%s: %v event #%d never came: %v", inst.ID(), k, n, err)
	}
	return ev
}

// TestTimerChurnScenario arms 600 wheel timers with deadlines spread
// over 30 ms, cancels every third before any time passes, and walks the
// clock past the last deadline one millisecond at a time: every
// uncancelled timer fires exactly once, none early, and no cancelled
// timer fires.
func TestTimerChurnScenario(t *testing.T) {
	const (
		n      = 600
		spread = 30 * time.Millisecond
	)
	clock := timers.NewFakeClock(epoch)
	svc := timers.New(clock, timers.Config{})
	defer svc.Close()

	var mu sync.Mutex
	fired := make([]int, n)
	deadlines := make([]time.Time, n)
	for i := 0; i < n; i++ {
		i := i
		deadlines[i] = epoch.Add(time.Millisecond + time.Duration(i)*spread/n)
		svc.Arm(fmt.Sprintf("churn-%d", i), deadlines[i], func() {
			now := clock.Now()
			mu.Lock()
			defer mu.Unlock()
			fired[i]++
			if now.Before(deadlines[i]) {
				t.Errorf("timer %d fired %v early", i, deadlines[i].Sub(now))
			}
		})
	}
	cancelled := make([]bool, n)
	for i := 0; i < n; i += 3 {
		if !svc.Cancel(fmt.Sprintf("churn-%d", i)) {
			t.Fatalf("cancel of timer %d lost before the clock moved", i)
		}
		cancelled[i] = true
	}
	for clock.Now().Before(epoch.Add(spread + 2*time.Millisecond)) {
		clock.Advance(time.Millisecond)
		svc.Sync()
		now := clock.Now()
		mu.Lock()
		for i, count := range fired {
			want := 0
			if !cancelled[i] && !deadlines[i].After(now) {
				want = 1
			}
			if count != want {
				mu.Unlock()
				t.Fatalf("at +%v timer %d (deadline +%v, cancelled %v) fired %d times, want %d",
					now.Sub(epoch), i, deadlines[i].Sub(epoch), cancelled[i], count, want)
			}
		}
		mu.Unlock()
	}
	if p := svc.Pending(); p != 0 {
		t.Fatalf("%d timers still pending past the last deadline", p)
	}
}

// TestTimerChainScenario runs a chain of four 1 ms first-class delays:
// the instance finishes only after four milliseconds of virtual time,
// with one fire per delay, each at or after its armed deadline.
func TestTimerChainScenario(t *testing.T) {
	const n = 4
	clock := timers.NewFakeClock(epoch)
	e := newEnv(t, nil, engine.Config{Ephemeral: true, Clock: clock})
	inst, err := e.eng.Instantiate("timerchain", compile(t, "timerchain4", workload.TimerChain(n, time.Millisecond)), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.TimerSeed()); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		waitNth(t, inst, engine.EventTimerArmed, k)
		clock.Advance(time.Millisecond)
	}
	if res := waitDone(t, inst); res.Output != "done" {
		t.Fatalf("outcome %q, want done", res.Output)
	}
	if elapsed := clock.Now().Sub(epoch); elapsed < n*time.Millisecond {
		t.Fatalf("chain of %dx1ms delays finished after %v: delays not honoured", n, elapsed)
	}
	armed := map[string]time.Time{}
	fires := 0
	for _, ev := range inst.Events() {
		switch ev.Kind {
		case engine.EventTimerArmed:
			armed[ev.Task] = ev.Deadline
		case engine.EventTimerFired:
			fires++
			if ev.Time.Before(armed[ev.Task]) {
				t.Errorf("%s fired at +%v, before its deadline +%v", ev.Task, ev.Time.Sub(epoch), armed[ev.Task].Sub(epoch))
			}
		}
	}
	if fires != n {
		t.Fatalf("timer fires = %d, want %d", fires, n)
	}
}

// TestDeadlineFanOutScenario runs eight parallel stages, each bounded by
// a 30 s deadline on the wheel and finishing well inside it, gating a
// sink: every stage completes and the instance ends in done.
func TestDeadlineFanOutScenario(t *testing.T) {
	const n = 8
	e := newEnv(t, nil, engine.Config{Ephemeral: true, Clock: timers.NewFakeClock(epoch)})
	e.impls.Bind("work", func(ctx registry.Context) (registry.Result, error) {
		return registry.Result{Output: "done", Objects: registry.Objects{"d": ctx.Inputs()["d"]}}, nil
	})
	_, inst := e.run(t, compile(t, "dlfan8", workload.DeadlineFanOut(n, 30*time.Second, "work")), workload.TimerSeed(), "done")
	for i := 1; i <= n; i++ {
		task := fmt.Sprintf("app/t%d", i)
		if c := countEvents(inst, func(e engine.Event) bool { return e.Kind == engine.EventTaskCompleted && e.Task == task }); c != 1 {
			t.Errorf("%s completed %d times, want 1", task, c)
		}
	}
}

// TestS4CrashDelayScenario starts a 250 ms delay over the WAL store,
// crashes the engine 80 ms in (the store survives, the controller does
// not) and recovers on a fresh engine: the delay is re-armed at its
// original absolute deadline and fires there exactly once, not 250 ms
// after the restart.
func TestS4CrashDelayScenario(t *testing.T) {
	const (
		delay      = 250 * time.Millisecond
		crashAfter = 80 * time.Millisecond
	)
	dir := t.TempDir()
	clock := timers.NewFakeClock(epoch)
	schema := compile(t, "s4delay", workload.TimerChain(1, delay))
	// open registers the store's close before newEnv registers the
	// engine's, so cleanup stops the engine first.
	open := func() (store.Store, func()) {
		st, closer, err := store.Open("wal", dir, false)
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		closeOnce := func() { once.Do(closer) }
		t.Cleanup(closeOnce)
		return st, closeOnce
	}

	// Phase 1: start, then crash mid-delay.
	st1, close1 := open()
	e1 := newEnv(t, st1, engine.Config{Clock: clock})
	inst1, err := e1.eng.Instantiate("s4delay", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst1.Start("main", workload.TimerSeed()); err != nil {
		t.Fatal(err)
	}
	deadline := waitNth(t, inst1, engine.EventTimerArmed, 1).Deadline
	if want := epoch.Add(delay); !deadline.Equal(want) {
		t.Fatalf("armed deadline +%v, want +%v", deadline.Sub(epoch), delay)
	}
	clock.Advance(crashAfter)
	e1.eng.Close()
	close1()

	// Phase 2: recover over the same directory and clock.
	st2, _ := open()
	e2 := newEnv(t, st2, engine.Config{Clock: clock})
	if _, err := e2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst2, err := e2.eng.Recover("s4delay", sema.CompileSource)
	if err != nil {
		t.Fatal(err)
	}
	if rearmed := waitNth(t, inst2, engine.EventTimerArmed, 1).Deadline; !rearmed.Equal(deadline) {
		t.Fatalf("re-armed at +%v, want the original +%v", rearmed.Sub(epoch), deadline.Sub(epoch))
	}
	clock.Advance(delay - crashAfter)
	if res := waitDone(t, inst2); res.Output != "done" {
		t.Fatalf("recovered outcome %q, want done", res.Output)
	}
	fires := 0
	for _, ev := range inst2.Events() {
		if ev.Kind != engine.EventTimerFired {
			continue
		}
		fires++
		if drift := ev.Time.Sub(deadline); drift < 0 || drift > time.Millisecond {
			t.Errorf("delay fired %v off its original deadline", drift)
		}
	}
	if fires != 1 {
		t.Fatalf("timer fired %d times after recovery, want exactly once", fires)
	}
	if n := countEvents(inst1, func(e engine.Event) bool { return e.Kind == engine.EventTimerFired }); n != 0 {
		t.Fatalf("timer fired %d times before the crash", n)
	}
}
