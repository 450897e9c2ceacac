package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/baseline/eca"
	"repro/internal/baseline/petri"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/failure"
	"repro/internal/orb"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/script/sema"
	"repro/internal/scripts"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/workload"
)

// schemaT keeps experiment signatures short.
type schemaT = core.Schema

// --- Fig. 4: the full distributed stack -------------------------------

// Fig4 deploys the whole Fig. 4 structure (naming + repository +
// execution services on an orb over loopback TCP) and, per run, executes
// one process-order instance entirely through remote clients.
type Fig4 struct {
	env    *Env
	server *orb.Server
	client *orb.Client
	execC  *execsvc.Client
	seq    int
}

// NewFig4 boots the stack and deploys the script.
func NewFig4() (*Fig4, error) {
	env := NewEnv(nil, engine.Config{})
	env.Impls.Bind("refPaymentAuthorisation", registry.Fixed("authorised", registry.Objects{"paymentInfo": {Class: "PaymentInfo", Data: "p"}}))
	env.Impls.Bind("refCheckStock", registry.Fixed("stockAvailable", registry.Objects{"stockInfo": {Class: "StockInfo", Data: "s"}}))
	env.Impls.Bind("refDispatch", registry.Fixed("dispatchCompleted", registry.Objects{"dispatchNote": {Class: "DispatchNote", Data: "n"}}))
	env.Impls.Bind("refPaymentCapture", registry.Fixed("done", nil))

	repo := repository.New(env.Preg)
	exec := execsvc.New(env.Eng, repo)
	server, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		env.Close()
		return nil, err
	}
	naming := orb.NewNaming()
	server.Register(orb.NamingObject, naming.Servant())
	server.Register(repository.ObjectName, repo.Servant())
	server.Register(execsvc.ObjectName, exec.Servant())
	naming.BindEntry(repository.ObjectName, server.Addr())
	naming.BindEntry(execsvc.ObjectName, server.Addr())

	client := orb.Dial(server.Addr(), orb.ClientConfig{})
	repoC := repository.NewClient(client)
	if _, err := repoC.Put("process-order", scripts.ProcessOrder); err != nil {
		server.Close()
		env.Close()
		return nil, err
	}
	return &Fig4{env: env, server: server, client: client, execC: execsvc.NewClient(client)}, nil
}

// Run executes one remote instantiate/start/wait cycle.
func (f *Fig4) Run() error {
	f.seq++
	id := fmt.Sprintf("fig4-%d", f.seq)
	if err := f.execC.Instantiate(id, "process-order", ""); err != nil {
		return err
	}
	if err := f.execC.Start(id, "main", registry.Objects{"order": {Class: "Order", Data: id}}); err != nil {
		return err
	}
	status, res, err := f.execC.WaitSettled(id, 30*time.Second)
	if err != nil {
		return err
	}
	if status != engine.StatusCompleted || res.Output != "orderCompleted" {
		return fmt.Errorf("status=%v outcome=%q", status, res.Output)
	}
	return f.execC.Stop(id)
}

// Close tears the stack down.
func (f *Fig4) Close() {
	f.client.Close()
	f.server.Close()
	f.env.Close()
}

// --- X1: crash recovery ----------------------------------------------

// X1Result reports one crash/recovery cycle.
type X1Result struct {
	RecoveryTime time.Duration
	ReExecuted   bool
}

// X1Opts parameterises the crash/recovery experiment. The zero value
// reproduces the historical behaviour (wall clock, 30s settle budget).
type X1Opts struct {
	// Settle bounds both waits: the pre-crash wait for the join task to
	// start, and the post-recovery wait for the instance to settle.
	// Zero means 30s.
	Settle time.Duration
	// Clock paces the waits and timestamps the recovery measurement; it
	// is also handed to both engine phases, so the whole cycle can run
	// on a timers.FakeClock. Nil means timers.WallClock.
	Clock timers.Clock
}

func (o X1Opts) withDefaults() X1Opts {
	if o.Settle <= 0 {
		o.Settle = 30 * time.Second
	}
	if o.Clock == nil {
		o.Clock = timers.WallClock{}
	}
	return o
}

// X1CrashRecovery runs a diamond workflow to the join task, "crashes"
// (stops the engine mid-execution), rebuilds everything from the store,
// and measures the time from recovery start to workflow completion. The
// store survives; the processes do not — the paper's processor-crash
// model.
func X1CrashRecovery(width int, opts X1Opts) (X1Result, error) {
	opts = opts.withDefaults()
	clk := opts.Clock
	st := store.NewMemStore()
	src := workload.Diamond(width)

	// Phase 1: run to the blocking join.
	env1 := NewEnv(st, engine.Config{Clock: opts.Clock})
	workload.Bind(env1.Impls)
	// Buffered: the signal must not be lost if the join starts before the
	// main goroutine reaches the receive.
	blocked := make(chan struct{}, 1)
	env1.Impls.Bind("pair", func(ctx registry.Context) (registry.Result, error) {
		select {
		case blocked <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return registry.Result{}, errors.New("cancelled")
	})
	schema := Compile("x1", src)
	inst, err := env1.Eng.Instantiate("x1", schema, "")
	if err != nil {
		return X1Result{}, err
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		return X1Result{}, err
	}
	select {
	case <-blocked:
	case <-clk.Wake(clk.Now().Add(opts.Settle)):
		return X1Result{}, errors.New("join never started")
	}
	inst.Stop()
	env1.Close()

	// Phase 2: recover on a fresh environment over the same store.
	begin := clk.Now()
	env2 := NewEnv(st, engine.Config{Clock: opts.Clock})
	defer env2.Close()
	workload.Bind(env2.Impls)
	if _, err := env2.Preg.Recover(); err != nil {
		return X1Result{}, err
	}
	inst2, err := env2.Eng.Recover("x1", sema.CompileSource)
	if err != nil {
		return X1Result{}, err
	}
	status, res, err := waitSettled(clk, inst2, opts.Settle)
	if err != nil {
		return X1Result{}, err
	}
	elapsed := clk.Now().Sub(begin)
	if status != engine.StatusCompleted || res.Output != "done" {
		return X1Result{}, fmt.Errorf("recovered status=%v outcome=%q", status, res.Output)
	}
	// Completed pre-crash tasks must not re-run.
	reExecuted := false
	for _, e := range inst2.Events() {
		if e.Kind == engine.EventTaskStarted && e.Task == "app/head" {
			reExecuted = true
		}
	}
	return X1Result{RecoveryTime: elapsed, ReExecuted: reExecuted}, nil
}

func waitSettled(clk timers.Clock, inst *engine.Instance, timeout time.Duration) (engine.InstanceStatus, engine.Result, error) {
	deadline := clk.Now().Add(timeout)
	for {
		switch inst.Status() {
		case engine.StatusCompleted, engine.StatusAborted, engine.StatusFailed:
			res, _ := inst.Result()
			return inst.Status(), res, nil
		case engine.StatusStalled:
			return inst.Status(), engine.Result{}, errors.New("stalled")
		}
		if clk.Now().After(deadline) {
			return inst.Status(), engine.Result{}, errors.New("timeout")
		}
		<-clk.Wake(clk.Now().Add(time.Millisecond))
	}
}

// --- X2: dynamic reconfiguration --------------------------------------

// X2Reconfigure measures applying the paper's reconfiguration example
// (add a task depending on two existing tasks, then remove it) to a
// running instance.
type X2Reconfigure struct {
	env  *Env
	inst *engine.Instance
	gate chan struct{}
	seq  int
}

// NewX2 starts a diamond instance held open by a gated stage.
func NewX2() (*X2Reconfigure, error) {
	env := NewEnv(nil, engine.Config{})
	workload.Bind(env.Impls)
	gate := make(chan struct{})
	env.Impls.Bind("pair", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["left"]}}, nil
	})
	schema := Compile("x2", workload.Diamond(2))
	inst, err := env.Eng.Instantiate("x2", schema, "")
	if err != nil {
		env.Close()
		return nil, err
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		env.Close()
		return nil, err
	}
	return &X2Reconfigure{env: env, inst: inst, gate: gate}, nil
}

// Run applies one add+remove reconfiguration batch pair.
func (x *X2Reconfigure) Run() error {
	x.seq++
	name := fmt.Sprintf("extra%d", x.seq)
	frag := fmt.Sprintf(`
task %s of taskclass Stage
{
    implementation { "code" is "stage" };
    inputs
    {
        input main
        {
            inputobject in from { out of task head if output done }
        }
    }
};`, name)
	if err := x.inst.Reconfigure(&engine.AddTaskOp{ScopePath: "app", Fragment: frag}); err != nil {
		return err
	}
	return x.inst.Reconfigure(&engine.RemoveTaskOp{ScopePath: "app", Name: name})
}

// Close releases the scenario.
func (x *X2Reconfigure) Close() {
	close(x.gate)
	x.env.Close()
}

// --- X3: baseline comparison ------------------------------------------

// X3Workload is one compiled workload shared by the three schedulers.
type X3Workload struct {
	Name   string
	Schema *schemaT
	Root   *core.Task

	rules    []eca.Rule
	ecaTasks map[string]*core.Task
	net      *petri.Net
	env      *Env
}

// NewX3 compiles the workload for all three schedulers.
func NewX3(name, src string) *X3Workload {
	schema := Compile(name, src)
	root, err := schema.Root("")
	if err != nil {
		panic(err)
	}
	rules, tasks := eca.Compile(schema, root)
	env := NewEnv(nil, engine.Config{Ephemeral: true})
	workload.Bind(env.Impls)
	return &X3Workload{
		Name: name, Schema: schema, Root: root,
		rules: rules, ecaTasks: tasks,
		net: petri.Compile(schema, root),
		env: env,
	}
}

// RunECA executes the workload on the rule engine.
func (w *X3Workload) RunECA() eca.Stats {
	return eca.NewEngine(w.rules, w.ecaTasks, workload.Oracle()).Run(eca.SeedFacts(w.Root))
}

// RunPetri executes the workload on the net engine.
func (w *X3Workload) RunPetri() petri.Stats {
	return w.net.Run(petri.Seed(w.Root), workload.Oracle())
}

// RunEngine executes the workload on the real engine (ephemeral mode, so
// the comparison isolates scheduling from persistence).
func (w *X3Workload) RunEngine() error {
	res, _, err := w.env.Run(w.Schema, "main", workload.Seed())
	if err != nil {
		return err
	}
	if res.Output != "done" {
		return fmt.Errorf("outcome %q", res.Output)
	}
	return nil
}

// NewX3Spec compiles a script for specification-size comparison only
// (SpecSizes); the runner methods are not meaningful for scripts whose
// implementations are not the generated workload set.
func NewX3Spec(name, src string) *X3Workload { return NewX3(name, src) }

// SpecSizes returns the specification-size comparison: sources in the
// structural script vs rules vs net elements.
func (w *X3Workload) SpecSizes() (script, rules, netElems int) {
	st := w.Schema.Stats()
	return st.Sources + st.InputSets + st.Outputs, len(w.rules), len(w.net.Places) + len(w.net.Transitions)
}

// Close releases the engine environment.
func (w *X3Workload) Close() { w.env.Close() }

// --- X5: lossy network -------------------------------------------------

// X5Lossy runs one full remote workflow over a transport that refuses
// and drops connections with the given probability, returning the retry
// count that was needed.
type X5Lossy struct {
	fig4  *Fig4
	lossy *orb.Client
	execC *execsvc.Client
	stats *failure.Stats
	seq   int
}

// NewX5 boots a stack and connects a faulty client to it.
func NewX5(refuseProb float64, seed int64) (*X5Lossy, error) {
	f, err := NewFig4()
	if err != nil {
		return nil, err
	}
	dialer, stats := failure.Lossy(failure.NetConfig{RefuseProb: refuseProb, DropAfter: 16, Seed: seed})
	lossy := orb.Dial(f.server.Addr(), orb.ClientConfig{
		Retries:    200,
		RetryDelay: 200 * time.Microsecond,
		Dialer:     dialer,
	})
	return &X5Lossy{fig4: f, lossy: lossy, execC: execsvc.NewClient(lossy), stats: stats}, nil
}

// Run executes one remote workflow over the faulty link.
func (x *X5Lossy) Run() error {
	x.seq++
	id := fmt.Sprintf("x5-%d", x.seq)
	if err := x.execC.Instantiate(id, "process-order", ""); err != nil {
		return err
	}
	if err := x.execC.Start(id, "main", registry.Objects{"order": {Class: "Order", Data: id}}); err != nil {
		return err
	}
	status, res, err := x.execC.WaitSettled(id, 30*time.Second)
	if err != nil {
		return err
	}
	if status != engine.StatusCompleted || res.Output != "orderCompleted" {
		return fmt.Errorf("status=%v outcome=%q", status, res.Output)
	}
	return x.execC.Stop(id)
}

// Retries reports client-level transport retries so far; Faults the
// injected refusals and drops.
func (x *X5Lossy) Retries() int { return x.lossy.Retries() }

// Faults reports injected faults so far.
func (x *X5Lossy) Faults() int { return x.stats.Refused() + x.stats.Dropped() }

// Close tears everything down.
func (x *X5Lossy) Close() {
	x.lossy.Close()
	x.fig4.Close()
}

// --- Ablations ----------------------------------------------------------

// Sched runs one synthetic workload through the engine under either the
// dependency-indexed dirty-set scheduler or the legacy full-rescan
// baseline (engine.Config.FullRescan). Persistence is ephemeral so the
// measurement isolates scheduling cost; the Scheduler benchmarks and the
// wfbench S1 rows drive it on deep chains and wide fan-ins.
type Sched struct {
	env    *Env
	schema *coreSchema
}

// NewSched prepares the scheduler scenario for the named workload source.
func NewSched(name, src string, fullRescan bool) *Sched {
	env := NewEnv(nil, engine.Config{Ephemeral: true, FullRescan: fullRescan})
	workload.Bind(env.Impls)
	return &Sched{env: env, schema: Compile(name, src)}
}

// Run executes one workflow instance end to end.
func (s *Sched) Run() error {
	res, _, err := s.env.Run(s.schema, "main", workload.Seed())
	if err != nil {
		return err
	}
	if res.Output != "done" {
		return fmt.Errorf("outcome %q", res.Output)
	}
	return nil
}

// Close releases the environment.
func (s *Sched) Close() { s.env.Close() }
