// Package engine implements the workflow execution service core: it
// coordinates the execution of workflow instances compiled from scripts,
// "recording inter-task dependencies in persistent atomic objects and
// using atomic transactions for propagating coordination information to
// ensure that tasks are scheduled to run respecting their dependencies"
// (Section 3 of the paper).
//
// Semantics implemented here, all from the paper:
//
//   - A task starts when one of its input sets is fully satisfied; among
//     simultaneously satisfiable sets the first in declaration order wins,
//     and among alternative sources of one input the first available in
//     declaration order wins (Section 2, Fig. 2).
//   - Task runs follow the Fig. 3 state machine: Wait, Execute, named
//     outcomes, abort outcomes (no side effects, transactional), repeat
//     outcomes (re-enter execution), and mark outputs (early release;
//     a task that has marked can no longer abort).
//   - System-level failures of implementations are retried automatically
//     a finite number of times, then mapped to an abort outcome.
//   - Compound tasks activate their constituents when they start and
//     terminate when one of their output mappings becomes satisfied.
//   - The structure of a running instance can be changed transactionally
//     (dynamic reconfiguration; see Reconfigure).
//   - Instances survive crashes: run states live in persistent atomic
//     objects and Engine.Recover rebuilds and resumes an instance.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/timers"
)

// Config tunes an Engine.
type Config struct {
	// MaxRetries bounds the automatic retries of a task whose
	// implementation reports a system-level failure. Default 3.
	MaxRetries int
	// MaxRepeats bounds repeat-outcome iterations per task as a runaway
	// protection. Default 1000.
	MaxRepeats int
	// DefaultDeadline bounds each implementation activation when the
	// task declares no "deadline" implementation property. Zero means no
	// bound. Deadlines are tracked on the engine's shared timing wheel.
	DefaultDeadline time.Duration
	// Clock supplies time to the whole engine: event timestamps, output
	// records, first-class delays, deadlines. Nil selects the wall
	// clock; tests inject timers.FakeClock to drive temporal behaviour
	// without sleeping.
	Clock timers.Clock
	// TimerTick is the timing-wheel granularity (worst-case fire
	// lateness; timers never fire early). Zero selects the wheel's
	// default (1ms).
	TimerTick time.Duration
	// Ephemeral disables persistence: the engine writes nothing to the
	// store and cannot recover. It is the baseline for the paper's
	// design decision to record dependencies in persistent atomic
	// objects: the bench local-ephemeral workload runs this way.
	Ephemeral bool
	// RemoteInvoker, when set, executes activations of tasks that carry a
	// "location" implementation property on a remote task executor
	// (Section 4.3 lists "location" and "agent" among the implementation
	// keywords). Remote failures are system-level failures: retried, then
	// the task fails. A located task is never atomic (sema rejects it),
	// so there is no abort outcome to map to. See internal/taskexec.
	RemoteInvoker RemoteInvoker
	// MaxRemoteInflight bounds how many remote activations of one
	// instance may be dispatched concurrently: excess activations wait
	// for a slot instead of piling unbounded concurrent calls onto the
	// executor pool (backpressure for wide fan-outs). 0 means unbounded.
	MaxRemoteInflight int
	// Probe, when set, receives park/wake notifications from every
	// instance controller: Park fires just before a controller blocks
	// with no queued input, Wake as soon as it unblocks. The
	// deterministic simulation harness (internal/sim) combines the pair
	// with QueuedWork to detect global quiescence; leave nil otherwise.
	Probe Probe
	// EventTap, when set, receives a copy of every event immediately
	// after it is recorded, on the emitting goroutine (per-instance
	// event order is preserved). The simulation harness streams its
	// cross-instance trace through it; leave nil otherwise.
	EventTap func(Event)
	// Metrics receives every counter, gauge and histogram the engine
	// records (see internal/obs and docs/OBSERVABILITY.md). Nil selects
	// the process-global obs.Default() registry; deterministic harnesses
	// inject their own so counters aggregate across simulated
	// coordinator generations.
	Metrics *obs.Registry
	// Tracer receives the engine's activation spans. Nil selects the
	// process-global obs.DefaultTracer().
	Tracer *obs.Tracer
}

// Probe observes instance-controller quiescence (see Config.Probe).
// Both methods are called from controller goroutines and must not
// block on engine state.
type Probe interface {
	// Park reports that the controller for instance id is about to
	// block waiting for input: an empty inbox, inflight activations not
	// yet retired and armed pending delay timers.
	Park(id string, inflight, armed int)
	// Wake reports that the controller resumed after a Park.
	Wake(id string)
}

// RemoteRequest describes one task activation to be executed elsewhere.
type RemoteRequest struct {
	Location  string
	Code      string
	Instance  string
	TaskPath  string
	InputSet  string
	Attempt   int
	Iteration int
	Inputs    registry.Objects
	// TraceID/SpanID identify the activation span dispatching this
	// request; the invoker propagates them as orb call metadata so the
	// executor's spans parent into the instance's trace.
	TraceID string
	SpanID  string
}

// RemoteInvoker executes a task activation at req.Location and returns
// its result. Implementations must be safe for concurrent use.
type RemoteInvoker func(req RemoteRequest) (registry.Result, error)

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRepeats == 0 {
		c.MaxRepeats = 1000
	}
	return c
}

// Engine runs workflow instances over a persistent object registry and a
// task-implementation registry.
type Engine struct {
	preg  *persist.Registry
	impls *registry.Registry
	cfg   Config
	// clock and timers are the temporal substrate: every instance's
	// delays and activation deadlines share one timing wheel.
	clock  timers.Clock
	timers *timers.Service
	// reg/tracer/met are the observability substrate (see obs.go).
	reg    *obs.Registry
	tracer *obs.Tracer
	met    engMetrics

	// evalHook, when set, replaces the dirty-set drain of evaluate. Only
	// the package's tests set it, to the full-rescan reference scheduler
	// or to a drain checked against it (see export_test.go).
	evalHook func(*Instance)

	mu        sync.Mutex
	instances map[string]*Instance
	// reserved holds the IDs Instantiate is committing outside mu; true
	// once StopMatching stopped the ID mid-commit.
	reserved map[string]bool
	closed   bool
}

// New returns an engine. preg supplies the persistent atomic objects and
// transactions; impls supplies late-bound task implementations.
func New(preg *persist.Registry, impls *registry.Registry, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = timers.WallClock{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer()
	}
	return &Engine{
		preg:      preg,
		impls:     impls,
		cfg:       cfg,
		clock:     clock,
		timers:    timers.New(clock, timers.Config{Tick: cfg.TimerTick}),
		reg:       reg,
		tracer:    tracer,
		met:       newEngMetrics(reg),
		instances: make(map[string]*Instance),
		reserved:  make(map[string]bool),
	}
}

// Impls returns the implementation registry (for rebinding/upgrades).
func (e *Engine) Impls() *registry.Registry { return e.impls }

// Clock returns the engine's clock (shared with embedding services, e.g.
// the instantiation scheduler).
func (e *Engine) Clock() timers.Clock { return e.clock }

// Timers returns the engine's shared timing-wheel service.
func (e *Engine) Timers() *timers.Service { return e.timers }

// ErrInstanceExists is returned when instantiating a duplicate ID.
var ErrInstanceExists = errors.New("instance already exists")

// ErrInstanceNotFound is returned when looking up an unknown instance.
var ErrInstanceNotFound = errors.New("instance not found")

// ErrStalled is returned by Wait when the instance can make no further
// progress without intervention (the paper's failure exception surfaced
// to the application level).
var ErrStalled = errors.New("instance stalled: no task executing and none can start")

// ErrStopped is returned by Wait when the instance was stopped.
var ErrStopped = errors.New("instance stopped")

// Instantiate creates a new instance of the schema rooted at rootName
// (empty selects the single top-level task) and starts its controller.
// The instance is persisted immediately so it can be recovered: its meta
// and its root run, in one batch. An Ephemeral engine writes nothing.
func (e *Engine) Instantiate(id string, schema *core.Schema, rootName string) (*Instance, error) {
	root, err := schema.Root(rootName)
	if err != nil {
		return nil, err
	}
	// Reserve the ID so a duplicate Instantiate and a concurrent
	// RecoverMatching see it, then commit outside e.mu: the commit waits
	// for the disk, and Instance lookups must not.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("engine is closed")
	}
	if e.taken(id) {
		e.mu.Unlock()
		return nil, fmt.Errorf("instantiate %s: %w", id, ErrInstanceExists)
	}
	e.reserved[id] = false
	e.mu.Unlock()

	inst := e.newInstance(id, schema, root)
	// The trace ID is minted here, once, and persisted in the meta: every
	// span of this instance's lifetime — across crashes, lease steals and
	// remote executors — carries it, so the pieces stitch into one tree.
	inst.meta = instanceMeta{
		ID: id, SchemaName: schema.Name, SchemaSource: schema.Source,
		RootName: root.Name, TraceID: obs.NewID(),
	}
	// The root run exists from the start, in Waiting.
	rootRun := inst.newRun(root, runState{Path: root.Path(), State: RunWaiting})
	inst.runs[root.Path()] = rootRun
	inst.markDirty(root.Path())
	if !e.cfg.Ephemeral {
		b := e.preg.NewBatch()
		err = b.Set(metaKey(id), inst.meta)
		if err == nil {
			err = b.Set(runKey(id, root.Path()), rootRun.st)
		}
		if err == nil {
			err = b.Commit()
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	stopped := e.reserved[id] || e.closed
	delete(e.reserved, id)
	if err == nil && stopped {
		err = ErrStopped // durable: a later recovery picks it up
	}
	if err != nil {
		return nil, fmt.Errorf("instantiate %s: %w", id, err)
	}
	// Root span: SpanID == TraceID by convention, so later spans parent
	// to it without extra state.
	now := e.clock.Now()
	e.tracer.Record(obs.Span{
		TraceID: inst.meta.TraceID, SpanID: inst.meta.TraceID,
		Name: "instantiate", Instance: id, Start: now, End: now,
		Attrs: map[string]string{"schema": schema.Name},
	})
	e.instances[id] = inst
	e.met.instancesLive.Set(int64(len(e.instances)))
	go inst.loop()
	return inst, nil
}

// taken reports whether id is live or being instantiated (e.mu held).
func (e *Engine) taken(id string) bool {
	_, live := e.instances[id]
	_, reserved := e.reserved[id]
	return live || reserved
}

// SchemaCompiler turns persisted schema source back into a compiled
// schema during recovery; callers pass sema.CompileSource (the engine
// does not import the front end). A recovery pass calls it once per
// distinct (name, source) and shares the result among that schema's
// instances; a reconfigured instance works on a clone.
type SchemaCompiler func(name string, src []byte) (*core.Schema, error)

// Instance returns a running instance by ID.
func (e *Engine) Instance(id string) (*Instance, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	inst, ok := e.instances[id]
	if !ok {
		return nil, fmt.Errorf("instance %s: %w", id, ErrInstanceNotFound)
	}
	return inst, nil
}

// Instances lists the IDs of live instances.
func (e *Engine) Instances() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.instances))
	for id := range e.instances {
		out = append(out, id)
	}
	return out
}

// drop removes a stopped instance from the table.
func (e *Engine) drop(id string) {
	e.mu.Lock()
	delete(e.instances, id)
	e.met.instancesLive.Set(int64(len(e.instances)))
	e.mu.Unlock()
}

// Close stops every instance controller.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	insts := make([]*Instance, 0, len(e.instances))
	for _, i := range e.instances {
		insts = append(insts, i)
	}
	e.mu.Unlock()
	for _, i := range insts {
		i.Stop()
	}
	e.timers.Close()
}

// InstanceStatus is the lifecycle state of a workflow instance.
type InstanceStatus int

// Instance states.
const (
	// StatusCreated: instantiated, root not yet started.
	StatusCreated InstanceStatus = iota + 1
	// StatusRunning: root started, work pending or executing.
	StatusRunning
	// StatusStalled: no progress possible without intervention.
	StatusStalled
	// StatusCompleted: root terminated in a non-abort outcome.
	StatusCompleted
	// StatusAborted: root terminated in an abort state.
	StatusAborted
	// StatusFailed: root failed (contract violation / retries exhausted).
	StatusFailed
	// StatusStopped: controller stopped by request.
	StatusStopped
)

// String names the status.
func (s InstanceStatus) String() string {
	switch s {
	case StatusCreated:
		return "created"
	case StatusRunning:
		return "running"
	case StatusStalled:
		return "stalled"
	case StatusCompleted:
		return "completed"
	case StatusAborted:
		return "aborted"
	case StatusFailed:
		return "failed"
	case StatusStopped:
		return "stopped"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result is the terminal outcome of an instance's root task.
type Result struct {
	Output  string
	Kind    core.OutputKind
	Objects registry.Objects
	State   RunState
}

// TaskStatus is one row of a status snapshot.
type TaskStatus struct {
	Path      string
	State     RunState
	ChosenSet string
	Attempt   int
	Iteration int
	Outputs   []string
}

// Instance is one running workflow: the unit the execution service
// coordinates.
type Instance struct {
	eng    *Engine
	id     string
	schema *core.Schema
	root   *core.Task
	meta   instanceMeta

	// Controller plumbing. runs is owned by the loop goroutine after
	// construction; external access goes through reqCh.
	runs map[string]*run
	// plan is the root tree's evaluation plan: task paths in schema DFS
	// order and the reverse-dependency index, shared read-only with the
	// schema's other instances. dirty marks, by plan position, the runs
	// queued for re-evaluation and dirtyHeap holds the same positions;
	// both owned by the goroutine owning runs. See depindex.go.
	plan      *core.Plan
	dirty     []bool
	dirtyHeap []int
	// pendingRuns buffers run-state writes (nil value = delete) between
	// batch flushes, pendingOrder their first-buffered order; both owned
	// by the loop goroutine. See persistRun/flushRuns in loop.go.
	pendingRuns  map[string]*run
	pendingOrder []string
	// pendingTimers buffers delay-record writes (nil = delete), flushed
	// in the same batch as the run states they belong to; owned by the
	// loop goroutine. See timers.go.
	pendingTimers     map[string]*delayRec
	pendingTimerOrder []string
	// armedTimers counts pending delay timers; a non-zero count means
	// the instance is not quiescent even with nothing executing.
	armedTimers int
	// scans counts run examinations by the evaluator; the scheduler
	// regression tests read it through Scans.
	scans atomic.Int64
	// remoteGate is the bounded-concurrency semaphore for remote
	// dispatches (Config.MaxRemoteInflight); nil when unbounded.
	remoteGate chan struct{}
	// inbox carries implementation results, activation deadlines,
	// cancellations and delay fires to the loop (see inbox.go).
	inbox    inbox
	markCh   chan markMsg
	reqCh    chan func()
	stopCh   chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
	// inflight counts the activations not yet retired; loop-owned.
	inflight int

	reconfigSeq int
	// genSeq issues run generations; touched only by the goroutine that
	// owns runs (the loop, or construction/recovery before the loop).
	genSeq int

	// Observable state, guarded by mu. changed exists only while someone
	// waits: a waiter makes it, the next update closes and drops it, so
	// waiters can select against contexts.
	mu      sync.Mutex
	changed chan struct{}
	events  []Event
	seq     int
	status  InstanceStatus
	result  *Result
}

func (e *Engine) newInstance(id string, schema *core.Schema, root *core.Task) *Instance {
	inst := &Instance{
		eng:           e,
		id:            id,
		schema:        schema,
		root:          root,
		runs:          make(map[string]*run),
		pendingRuns:   make(map[string]*run),
		pendingTimers: make(map[string]*delayRec),
		inbox:         inbox{nudge: make(chan struct{}, 1)},
		markCh:        make(chan markMsg),
		reqCh:         make(chan func()),
		stopCh:        make(chan struct{}),
		loopDone:      make(chan struct{}),
		status:        StatusCreated,
	}
	if n := e.cfg.MaxRemoteInflight; n > 0 {
		inst.remoteGate = make(chan struct{}, n)
	}
	inst.usePlan()
	// Size the history for an instance that runs each task once: waiting,
	// started and terminal per task, plus instance-completed.
	inst.events = make([]Event, 0, 3*len(inst.plan.Paths)+1)
	return inst
}

// ID returns the instance identifier.
func (i *Instance) ID() string { return i.id }

// newRun allocates a run with a fresh generation. A run recovered in
// Executing gets its cancel channel here; any other gets one when it
// starts (startRun). Must be called from the goroutine owning the run
// map.
func (i *Instance) newRun(task *core.Task, st runState) *run {
	i.genSeq++
	r := &run{task: task, st: st, gen: i.genSeq}
	if st.State == RunExecuting {
		r.cancel = make(chan struct{})
	}
	return r
}

// Schema returns the instance's (possibly reconfigured) schema.
func (i *Instance) Schema() *core.Schema { return i.schema }

// Scans returns the cumulative number of run examinations performed by
// the evaluator. The scheduler regression tests assert that a completion
// event re-examines only the indexed consumers of the completed task.
func (i *Instance) Scans() int64 { return i.scans.Load() }

// notifyLocked wakes the waiters, if any, so they re-check (mu held).
func (i *Instance) notifyLocked() {
	if i.changed != nil {
		close(i.changed)
		i.changed = nil
	}
}

// emit appends an event to the trace, stamped by the engine clock.
func (i *Instance) emit(ev Event) {
	i.mu.Lock()
	i.seq++
	ev.Seq = i.seq
	ev.Time = i.eng.clock.Now()
	ev.Instance = i.id
	i.events = append(i.events, ev)
	i.notifyLocked()
	i.mu.Unlock()
	if tap := i.eng.cfg.EventTap; tap != nil {
		tap(ev)
	}
}

// QueuedWork reports how much input is queued for the controller but
// not yet consumed: the messages in its inbox (implementation results,
// deadlines, cancellations, delay fires). Safe from any goroutine; the
// simulation harness polls it (together with Config.Probe) to detect
// quiescence.
func (i *Instance) QueuedWork() int { return i.inbox.len() }

// Events returns a snapshot of the event trace.
func (i *Instance) Events() []Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]Event, len(i.events))
	copy(out, i.events)
	return out
}

// Status returns the instance status.
func (i *Instance) Status() InstanceStatus {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.status
}

// setStatus transitions the observable status.
func (i *Instance) setStatus(s InstanceStatus) {
	i.mu.Lock()
	if i.status != s {
		i.status = s
		i.notifyLocked()
	}
	i.mu.Unlock()
}

// Result returns the terminal result, if any.
func (i *Instance) Result() (Result, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.result == nil {
		return Result{}, false
	}
	return *i.result, true
}

// Start begins execution of the root task with the given input set and
// objects, validated against the root task class. Start persists the
// request so recovery restarts an instance whose root had been started.
func (i *Instance) Start(set string, inputs registry.Objects) error {
	decl := i.root.Class.InputSet(set)
	if decl == nil {
		return fmt.Errorf("start %s: root taskclass %s has no input set %q", i.id, i.root.Class.Name, set)
	}
	for _, f := range decl.Objects {
		v, ok := inputs[f.Name]
		if !ok {
			return fmt.Errorf("start %s: missing input object %q (class %s)", i.id, f.Name, f.Class)
		}
		if !i.schema.AssignableTo(v.Class, f.Class) {
			return fmt.Errorf("start %s: input %q has class %s, want %s", i.id, f.Name, v.Class, f.Class)
		}
	}
	errCh := make(chan error, 1)
	select {
	case i.reqCh <- func() { errCh <- i.startRoot(set, inputs) }:
	case <-i.loopDone:
		return ErrStopped
	}
	select {
	case err := <-errCh:
		return err
	case <-i.loopDone:
		return ErrStopped
	}
}

// waitPred blocks until pred (evaluated under mu) is true or ctx ends.
func (i *Instance) waitPred(ctx context.Context, pred func() bool) error {
	i.mu.Lock()
	for !pred() {
		if i.changed == nil {
			i.changed = make(chan struct{})
		}
		ch := i.changed
		i.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		i.mu.Lock()
	}
	i.mu.Unlock()
	return nil
}

// Wait blocks until the instance settles: terminal root (Result, nil),
// stalled (ErrStalled), stopped (ErrStopped), or context end.
func (i *Instance) Wait(ctx context.Context) (Result, error) {
	var settled InstanceStatus
	err := i.waitPred(ctx, func() bool {
		switch i.status {
		case StatusCompleted, StatusAborted, StatusFailed, StatusStalled, StatusStopped:
			settled = i.status
			return true
		default:
			return false
		}
	})
	if err != nil {
		return Result{}, err
	}
	switch settled {
	case StatusStalled:
		return Result{}, ErrStalled
	case StatusStopped:
		return Result{}, ErrStopped
	default:
		i.mu.Lock()
		defer i.mu.Unlock()
		if i.result == nil {
			return Result{}, fmt.Errorf("instance %s settled (%s) without result", i.id, settled)
		}
		return *i.result, nil
	}
}

// WaitEvent blocks until an event satisfying pred has been emitted and
// returns the first such event.
func (i *Instance) WaitEvent(ctx context.Context, pred func(Event) bool) (Event, error) {
	var found Event
	scanned := 0
	err := i.waitPred(ctx, func() bool {
		for ; scanned < len(i.events); scanned++ {
			if pred(i.events[scanned]) {
				found = i.events[scanned]
				return true
			}
		}
		return false
	})
	return found, err
}

// Snapshot returns the status of every known task run, in schema order.
func (i *Instance) Snapshot() ([]TaskStatus, error) {
	type reply struct {
		rows []TaskStatus
	}
	ch := make(chan reply, 1)
	select {
	case i.reqCh <- func() {
		rows := make([]TaskStatus, 0, len(i.runs))
		for _, path := range i.plan.Paths {
			r, ok := i.runs[path]
			if !ok {
				continue
			}
			row := TaskStatus{
				Path: path, State: r.st.State, ChosenSet: r.st.ChosenSet,
				Attempt: r.st.Attempt, Iteration: r.st.Iteration,
			}
			for _, rec := range r.st.Outputs {
				row.Outputs = append(row.Outputs, rec.Output)
			}
			rows = append(rows, row)
		}
		ch <- reply{rows: rows}
	}:
	case <-i.loopDone:
		return i.offlineSnapshot(), nil
	}
	select {
	case rep := <-ch:
		return rep.rows, nil
	case <-i.loopDone:
		return i.offlineSnapshot(), nil
	}
}

// offlineSnapshot reads run state after the loop has exited (safe: no
// more concurrent mutation).
func (i *Instance) offlineSnapshot() []TaskStatus {
	rows := make([]TaskStatus, 0, len(i.runs))
	for _, path := range i.plan.Paths {
		r, ok := i.runs[path]
		if !ok {
			continue
		}
		row := TaskStatus{
			Path: path, State: r.st.State, ChosenSet: r.st.ChosenSet,
			Attempt: r.st.Attempt, Iteration: r.st.Iteration,
		}
		for _, rec := range r.st.Outputs {
			row.Outputs = append(row.Outputs, rec.Output)
		}
		rows = append(rows, row)
	}
	return rows
}

// AbortTask force-aborts a task run (user-initiated abort of Fig. 3).
// outcome optionally names the abort outcome to terminate in; empty
// selects the first declared abort outcome, if any.
func (i *Instance) AbortTask(path, outcome string) error {
	errCh := make(chan error, 1)
	select {
	case i.reqCh <- func() { errCh <- i.abortTask(path, outcome) }:
	case <-i.loopDone:
		return ErrStopped
	}
	select {
	case err := <-errCh:
		return err
	case <-i.loopDone:
		return ErrStopped
	}
}

// Stop halts the controller, cancelling executing implementations; it
// does not wait for an implementation that ignores the cancellation. The
// instance's persistent state remains recoverable.
func (i *Instance) Stop() {
	i.stopOnce.Do(func() { close(i.stopCh) })
	<-i.loopDone
	i.eng.drop(i.id)
	i.setStatus(StatusStopped)
}

// saveMeta persists the instance header in a batch of its own.
func (i *Instance) saveMeta(meta instanceMeta) error {
	if i.eng.cfg.Ephemeral {
		return nil
	}
	b := i.eng.preg.NewBatch()
	err := b.Set(metaKey(i.id), meta)
	if err == nil {
		err = b.Commit()
	}
	if err != nil {
		return fmt.Errorf("save meta %s: %w", i.id, err)
	}
	return nil
}
