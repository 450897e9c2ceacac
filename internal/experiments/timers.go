package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/txn"
	"repro/internal/workload"
)

// --- S4: the temporal subsystem ----------------------------------------

// ChurnReport summarises one timing-wheel churn run.
type ChurnReport struct {
	// Armed and Cancelled count the wheel operations; Fired the timers
	// that reached their deadline.
	Armed, Cancelled, Fired int
	// Elapsed is arm-to-last-fire wall time (bounded below by the widest
	// deadline: the run is sleep-dominated by design).
	Elapsed time.Duration
	// P50 and P99 are fire-latency percentiles (fire instant minus
	// deadline; the wheel never fires early, so these are pure lateness).
	P50, P99 time.Duration
}

// TimerChurn arms n wall-clock timers with deadlines spread over
// [1ms, spread], cancels every third one before it can fire, and waits
// for the rest: the 10k-concurrent-timer scenario of the wfbench S4
// rows. It verifies exactly-once firing and reports fire-latency
// percentiles.
func TimerChurn(n int, spread time.Duration) (ChurnReport, error) {
	svc := timers.New(nil, timers.Config{})
	defer svc.Close()

	var (
		mu    sync.Mutex
		lates []time.Duration
		wg    sync.WaitGroup
	)
	fired := make([]int, n)
	begin := wall.Now()
	rep := ChurnReport{Armed: n}
	for i := 0; i < n; i++ {
		i := i
		deadline := begin.Add(time.Millisecond + time.Duration(i)*spread/time.Duration(n))
		wg.Add(1)
		svc.Arm(fmt.Sprintf("churn-%d", i), deadline, func() {
			late := wall.Now().Sub(deadline)
			mu.Lock()
			fired[i]++
			lates = append(lates, late)
			mu.Unlock()
			wg.Done()
		})
	}
	// A timer we try to cancel may legitimately have fired already (the
	// earliest deadlines are ~1ms out, and arming n of them takes real
	// time): the exactly-once expectation for each index is decided by
	// whether the Cancel actually won the race.
	cancelled := make([]bool, n)
	for i := 0; i < n; i += 3 {
		if svc.Cancel(fmt.Sprintf("churn-%d", i)) {
			cancelled[i] = true
			rep.Cancelled++
			wg.Done()
		}
	}
	wg.Wait()
	rep.Elapsed = wall.Now().Sub(begin)
	mu.Lock()
	defer mu.Unlock()
	for i, count := range fired {
		expect := 1
		if cancelled[i] {
			expect = 0
		}
		if count != expect {
			return rep, fmt.Errorf("timer %d fired %d times, want %d", i, count, expect)
		}
	}
	rep.Fired = len(lates)
	sort.Slice(lates, func(i, j int) bool { return lates[i] < lates[j] })
	rep.P50 = percentile(lates, 0.50)
	rep.P99 = percentile(lates, 0.99)
	return rep, nil
}

// percentile returns the p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// TimerChainRun is the engine-level temporal workload: a chain of
// first-class delay tasks, no implementation code at all. Each Run is
// one instance whose wall time is n*delay plus wheel and scheduler
// overhead.
type TimerChainRun struct {
	env    *Env
	schema *coreSchema
}

// NewTimerChain prepares the scenario.
func NewTimerChain(n int, delay time.Duration) *TimerChainRun {
	env := NewEnv(nil, engine.Config{Ephemeral: true})
	return &TimerChainRun{env: env, schema: Compile(fmt.Sprintf("timerchain%d", n), workload.TimerChain(n, delay))}
}

// Run executes one instance end to end.
func (s *TimerChainRun) Run() error {
	res, _, err := s.env.Run(s.schema, "main", workload.TimerSeed())
	if err != nil {
		return err
	}
	if res.Output != "done" {
		return fmt.Errorf("outcome %q", res.Output)
	}
	return nil
}

// Close releases the environment.
func (s *TimerChainRun) Close() { s.env.Close() }

// DeadlineFanOutRun measures deadline churn: n parallel activations,
// each arming a wheel deadline on start and disarming it on completion
// (none expire — the stages finish well inside the bound).
type DeadlineFanOutRun struct {
	env    *Env
	schema *coreSchema
}

// NewDeadlineFanOut prepares the scenario; each stage simulates work ms
// of work, far below the 30s deadline.
func NewDeadlineFanOut(n int, work time.Duration) *DeadlineFanOutRun {
	env := NewEnv(nil, engine.Config{Ephemeral: true})
	env.Impls.Bind("work", func(ctx registry.Context) (registry.Result, error) {
		if work > 0 {
			<-wall.Wake(wall.Now().Add(work))
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"d": ctx.Inputs()["d"]}}, nil
	})
	return &DeadlineFanOutRun{env: env, schema: Compile(fmt.Sprintf("dlfan%d", n), workload.DeadlineFanOut(n, 30*time.Second, "work"))}
}

// Run executes one instance end to end.
func (s *DeadlineFanOutRun) Run() error {
	res, _, err := s.env.Run(s.schema, "main", workload.TimerSeed())
	if err != nil {
		return err
	}
	if res.Output != "done" {
		return fmt.Errorf("outcome %q", res.Output)
	}
	return nil
}

// Close releases the environment.
func (s *DeadlineFanOutRun) Close() { s.env.Close() }

// S4DelayResult reports one crash-recovery delay cycle.
type S4DelayResult struct {
	// Total is start-to-completion wall time across the crash.
	Total time.Duration
	// Drift is how far past the ORIGINAL absolute deadline the timer
	// fired (negative would mean an early fire; a restarted-from-zero
	// delay shows up as a drift of roughly the pre-crash runtime).
	Drift time.Duration
	// Fires counts post-recovery timer fires (must be exactly 1).
	Fires int
}

// S4CrashDelay starts a single first-class delay of the given duration
// over a durable WAL store, crashes the engine crashAfter in (the store
// survives, the controller does not), recovers on a fresh engine, and
// measures when the delay actually fired relative to its original
// absolute deadline. dir hosts the WAL segments.
func S4CrashDelay(delay, crashAfter time.Duration, dir string) (S4DelayResult, error) {
	if crashAfter >= delay {
		return S4DelayResult{}, errors.New("crashAfter must fall inside the delay")
	}
	src := workload.TimerChain(1, delay)

	open := func() (store.Store, func(), *persist.Registry, *engine.Engine, error) {
		st, closer, err := store.Open("wal", dir, false)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		preg := persist.NewRegistry(st, txn.NewManager(st), nil)
		if _, err := preg.Recover(); err != nil {
			closer()
			return nil, nil, nil, nil, err
		}
		eng := engine.New(preg, registry.New(), engine.Config{})
		return st, closer, preg, eng, nil
	}

	// Phase 1: start, then crash mid-delay.
	_, close1, _, eng1, err := open()
	if err != nil {
		return S4DelayResult{}, err
	}
	schema := Compile("s4delay", src)
	inst1, err := eng1.Instantiate("s4delay", schema, "")
	if err != nil {
		close1()
		return S4DelayResult{}, err
	}
	begin := wall.Now()
	if err := inst1.Start("main", workload.TimerSeed()); err != nil {
		close1()
		return S4DelayResult{}, err
	}
	// The armed event carries the absolute deadline the fire is judged
	// against.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	armed, err := inst1.WaitEvent(ctx, func(e engine.Event) bool { return e.Kind == engine.EventTimerArmed })
	cancel()
	if err != nil {
		close1()
		return S4DelayResult{}, fmt.Errorf("delay never armed: %w", err)
	}
	deadline := armed.Deadline
	<-wall.Wake(wall.Now().Add(crashAfter))
	eng1.Close()
	close1()

	// Phase 2: recover and let the delay fire.
	_, close2, _, eng2, err := open()
	if err != nil {
		return S4DelayResult{}, err
	}
	defer close2()
	defer eng2.Close()
	inst2, err := eng2.Recover("s4delay", sema.CompileSource)
	if err != nil {
		return S4DelayResult{}, err
	}
	status, res, err := waitSettled(wall, inst2, delay+30*time.Second)
	if err != nil {
		return S4DelayResult{}, err
	}
	total := wall.Now().Sub(begin)
	if status != engine.StatusCompleted || res.Output != "done" {
		return S4DelayResult{}, fmt.Errorf("recovered status=%v outcome=%q", status, res.Output)
	}
	out := S4DelayResult{Total: total}
	for _, ev := range inst2.Events() {
		if ev.Kind == engine.EventTimerFired {
			out.Fires++
			out.Drift = ev.Time.Sub(deadline)
		}
	}
	if out.Fires != 1 {
		return out, fmt.Errorf("timer fired %d times after recovery, want exactly once", out.Fires)
	}
	if out.Drift < 0 {
		return out, fmt.Errorf("timer fired %v EARLY (before its original deadline)", out.Drift)
	}
	return out, nil
}

// NewS4Dir creates a scratch directory for the crash-recovery scenario.
func NewS4Dir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "wfbench-s4-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}
