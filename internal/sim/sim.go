// Package sim is the deterministic in-process simulation harness: it
// runs a whole distributed deployment — coordinator engine, a pool of
// remote task executors, the naming service and the persistent store —
// inside one process, against one shared timers.FakeClock and an
// in-memory orb transport (orb.MemNetwork), so a full-stack run
// completes in microseconds and is bit-identically reproducible.
//
// Determinism comes from closing every source of free-running time and
// free-running concurrency:
//
//   - Time is the shared FakeClock; it moves only when the driver calls
//     Advance, and the timing wheel's Sync() gives a happens-before
//     edge from "the clock moved" to "every consequent fire delivered".
//   - Task implementations never run ahead of the driver: every
//     activation — local or dispatched to an executor — blocks on a
//     *gate* until the driver releases it with a chosen outcome (or an
//     injected failure). The set of gated activations is the visible
//     frontier of the computation.
//   - Between driver actions the world *settles*: the harness waits, via
//     the engine's Config.Probe park/wake hooks, until every instance
//     controller is parked with empty queues and every in-flight worker
//     is accounted for by a gate entry. At that point nothing in the
//     system can make progress without another injected action, so the
//     event trace collected so far is a pure function of the action
//     sequence.
//   - Executor selection uses taskexec.BalanceHash, which keys on the
//     activation identity instead of dispatch arrival order.
//
// Fault injection is kill-anywhere: KillExecutor severs an executor's
// connections mid-handshake (dispatches fail over), CrashCoordinator
// stops the engine and RecoverCoordinator drives the real
// persist/engine recovery paths over the surviving store, KillNaming
// makes resolution fail. Each is deterministic by construction: the
// kill sequence cuts connections *before* unblocking gated handlers, so
// a peer always observes a transport failure and never a late reply.
// Sharded worlds additionally inject disk faults: WedgeDisk fail-stops
// a live coordinator's partition-store write path (execution runs ahead
// of an increasingly stale durable state) and DegradeCoordinator drives
// the graceful handoff — the sick coordinator keeps running, its wedged
// partitions move to a healthy peer, and the peer re-materializes their
// instances from the shared partition stores.
//
// On top of the World API sit the scenario layer (scenario.go: a
// documented file format with trace assertions and golden traces — see
// docs/SCENARIOS.md) and the seeded fuzzer (fuzz.go: random
// topology/workload/action walks, replayable from their seed via
// cmd/wfsim).
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/timers"
	"repro/internal/txn"
)

// DefaultEpoch is the virtual instant simulations start at unless the
// config overrides it. A fixed epoch keeps rendered traces (which show
// offsets from it) identical across runs and machines.
var DefaultEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// settleTimeout bounds one settle pass in real time. It is a watchdog
// against harness bugs (a release that can never land, a wedged
// barrier) so a broken scenario fails loudly instead of hanging CI; a
// healthy settle takes microseconds.
const settleTimeout = 30 * time.Second

// Config describes a simulated deployment.
type Config struct {
	// Executors is the number of remote task executors in the pool.
	// Zero means a purely local deployment (no remote dispatch).
	Executors int
	// Coordinators is the number of coordinator engines. Zero or one is
	// the classic single-coordinator world (where=local, unchanged
	// traces). More builds a sharded tier: instances hash to partitions
	// (shard.PartitionOf), each partition is owned by the rendezvous-
	// preferred coordinator (shard.Preferred over the live set, the
	// deterministic outcome of the production lease protocol), and
	// CrashCoordinator fails the dead coordinator's partitions over to
	// the survivors, which re-materialize the in-flight instances from
	// the shared per-partition stores.
	Coordinators int
	// Partitions is the sharded tier's partition count. Zero selects
	// shard.DefaultPartitions. Single-coordinator worlds ignore it.
	Partitions int
	// Location is the pool's location name, resolved through the
	// simulated naming service. Default "pool".
	Location string
	// Store is the coordinator's persistent store, shared across
	// coordinator crashes. Nil selects a fresh store.NewMemStore.
	// Multi-coordinator worlds own their per-partition stores; leave it
	// nil there.
	Store store.Store
	// Epoch is the virtual start instant. Zero selects DefaultEpoch.
	Epoch time.Time
	// Engine carries extra engine knobs (MaxRetries, MaxRepeats, ...).
	// Clock, Probe, EventTap, RemoteInvoker, Metrics and Tracer are
	// owned by the harness and must be left nil; Ephemeral,
	// DefaultDeadline and MaxRemoteInflight must be zero (see New).
	Engine engine.Config
}

// Ready identifies one gated activation: an implementation that has
// been dispatched (locally or on an executor) and is blocked waiting
// for the driver to release it.
type Ready struct {
	// Instance and Path locate the task run.
	Instance string
	Path     string
	// Where is "local" for coordinator-side activations or the executor
	// name ("exec0", ...) the activation was dispatched to.
	Where string
	// Code is the implementation code name the activation is bound to.
	Code string
	// Attempt and Iteration snapshot the retry/repeat counters.
	Attempt   int
	Iteration int
}

// gateKey identifies a gate entry. Attempt and iteration are part of
// the key so a retried or repeated activation is a distinct entry.
type gateKey struct {
	inst      string
	path      string
	attempt   int
	iteration int
	where     string
}

// releaseCmd is the driver's verdict for one gated activation.
type releaseCmd struct {
	outcome string
	objects registry.Objects
	err     error
}

// gateEntry is one blocked activation.
type gateEntry struct {
	key     gateKey
	code    string
	inputs  registry.Objects
	release chan releaseCmd
}

// instTrack is the barrier's view of one live engine instance. parked,
// inflight and armed are written by the Probe callbacks (on the
// controller goroutine); inst is set by the driver right after
// Instantiate/Recover returns. host is the coordinator slot the
// instance lives on (always 0 in single-coordinator worlds; updated on
// failover in sharded ones).
type instTrack struct {
	inst     *engine.Instance
	host     int
	parked   bool
	inflight int
	armed    int
}

// executor is one slot of the simulated executor pool.
type executor struct {
	name  string
	addr  string
	srv   *orb.Server
	alive bool
}

// simCoord is one coordinator slot: a persistent registry and engine
// over its view of the store, plus (with executors) its own pool
// invoker. Replaced wholesale by CrashCoordinator/RecoverCoordinator.
// Touched only by the driver goroutine.
type simCoord struct {
	name string
	preg *persist.Registry
	eng  *engine.Engine
	inv  *taskexec.Invoker
	ps   *shard.PartitionedStore // nil in single-coordinator worlds
	// views are the coordinator's fault-injectable windows onto the
	// shared per-partition stores, one per mounted partition: WedgeDisk
	// fail-stops their write paths without disturbing the durable state
	// a healthy peer recovers from. Nil in single-coordinator worlds.
	views map[int]*failure.WedgeStore
	alive bool
}

// World is a simulated deployment. All driver methods (Instantiate,
// Start, Release, Advance, Kill*, ...) must be called from a single
// goroutine; each one settles the world before returning, so after any
// driver call the trace is complete up to that action.
type World struct {
	cfg   Config
	epoch time.Time
	clock *timers.FakeClock
	st    store.Store
	net   *orb.MemNetwork
	nam   *orb.Naming

	// reg/tracer are the world's private observability substrate, shared
	// by every component across its whole life: coordinator crash/recover
	// rebuilds the engine stack wholesale, but the rebuilt generation
	// records into the same registry, so a counter like
	// engine_timer_fires_total aggregates across generations and
	// "== 1 after a crash" is a real exactly-once witness. Private (not
	// obs.Default()) so concurrent worlds in one test process never
	// cross-talk.
	reg    *obs.Registry
	tracer *obs.Tracer

	// Coordinator tier. Single-coordinator worlds have exactly one slot
	// (named "local", backed by w.st directly); sharded worlds have
	// cfg.Coordinators slots ("c0", "c1", ...) over per-partition
	// stores. Touched only by the driver goroutine.
	coords  []*simCoord
	multi   bool
	parts   int
	pstores []store.Store // per-partition stores; survive crashes
	owner   []int         // partition -> coordinator slot, -1 unowned

	execs []*executor

	mu        sync.Mutex
	cond      *sync.Cond
	activity  uint64
	wedged    bool
	namingUp  bool
	insts     map[string]*instTrack
	order     []string                // instance IDs in creation order
	schemas   map[string]*core.Schema // by instance ID
	compiled  map[string]*core.Schema // by schema name
	binds     map[string]*bindSeq     // scripted outcomes by code
	gate      map[gateKey]*gateEntry
	events    []engine.Event       // tapped, pending trace render
	armed     map[string]time.Time // inst|path -> delay deadline
	trace     []string
	lastReady map[gateKey]bool
}

// bindSeq scripts the default outcomes of one implementation code:
// successive activations consume the list; the last element sticks.
type bindSeq struct {
	outcomes []string
	next     int
}

// New builds a simulated deployment: the store, the naming service, the
// executor pool (each executor an orb server on the in-memory network,
// bound permanently under cfg.Location) and the coordinator engine.
func New(cfg Config) (*World, error) {
	if cfg.Engine.Clock != nil || cfg.Engine.Probe != nil || cfg.Engine.EventTap != nil || cfg.Engine.RemoteInvoker != nil {
		return nil, errors.New("sim: Engine.Clock/Probe/EventTap/RemoteInvoker are owned by the harness; leave them nil")
	}
	if cfg.Engine.Metrics != nil || cfg.Engine.Tracer != nil {
		return nil, errors.New("sim: Engine.Metrics/Tracer are owned by the harness (one registry spanning coordinator generations); leave them nil and read World.Metric")
	}
	if cfg.Engine.Ephemeral {
		return nil, errors.New("sim: Ephemeral engines have no recovery paths to exercise; leave it false")
	}
	if cfg.Engine.DefaultDeadline != 0 {
		return nil, errors.New("sim: activation deadlines are not simulable (an abandoned activation would leak its gate entry); leave DefaultDeadline zero")
	}
	if cfg.Engine.MaxRemoteInflight != 0 {
		return nil, errors.New("sim: MaxRemoteInflight would hold workers outside the gate and break the quiescence barrier; leave it zero")
	}
	if cfg.Location == "" {
		cfg.Location = "pool"
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = DefaultEpoch
	}
	nCoords := cfg.Coordinators
	if nCoords <= 0 {
		nCoords = 1
	}
	multi := nCoords > 1
	if multi && cfg.Store != nil {
		return nil, errors.New("sim: multi-coordinator worlds own their per-partition stores; leave Store nil")
	}
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("sim: bad partition count %d", cfg.Partitions)
	}
	parts := cfg.Partitions
	if parts == 0 {
		parts = shard.DefaultPartitions
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMemStore()
	}
	w := &World{
		cfg:       cfg,
		epoch:     cfg.Epoch,
		clock:     timers.NewFakeClock(cfg.Epoch),
		st:        st,
		net:       orb.NewMemNetwork(),
		nam:       orb.NewNaming(),
		reg:       obs.NewRegistry(),
		tracer:    obs.NewTracer(4096),
		coords:    make([]*simCoord, nCoords),
		multi:     multi,
		parts:     parts,
		execs:     make([]*executor, cfg.Executors),
		namingUp:  true,
		insts:     make(map[string]*instTrack),
		schemas:   make(map[string]*core.Schema),
		compiled:  make(map[string]*core.Schema),
		binds:     make(map[string]*bindSeq),
		gate:      make(map[gateKey]*gateEntry),
		armed:     make(map[string]time.Time),
		lastReady: make(map[gateKey]bool),
	}
	w.cond = sync.NewCond(&w.mu)
	w.nam.SetClock(w.clock.Now)
	for i := range w.execs {
		if err := w.startExecutor(i); err != nil {
			return nil, err
		}
		// Permanent membership (ttl 0): a killed executor keeps its
		// binding, like the real e2e topology — failover and
		// blacklisting mask it, not naming.
		w.nam.BindMember(cfg.Location, w.execs[i].addr, 0)
	}
	if multi {
		// Shared per-partition stores, rendezvous-preferred initial
		// ownership — the steady state the production lease protocol
		// converges to with every coordinator up.
		w.pstores = make([]store.Store, parts)
		w.owner = make([]int, parts)
		for p := range w.pstores {
			w.pstores[p] = store.NewMemStore()
			w.owner[p] = w.preferredOwner(p, nil)
		}
	}
	for i := range w.coords {
		if err := w.bootCoordinator(i, false); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// coordName is the where-label of coordinator slot i: "local" in
// single-coordinator worlds (keeping classic traces byte-identical),
// "cI" in sharded ones.
func (w *World) coordName(i int) string {
	if !w.multi {
		return "local"
	}
	return fmt.Sprintf("c%d", i)
}

// mountView mounts partition p into coordinator c through a fresh
// fault-injectable view of the shared partition store.
func (w *World) mountView(c *simCoord, p int) {
	v := failure.NewWedgeStore(w.pstores[p])
	c.views[p] = v
	c.ps.Mount(p, v)
}

// preferredOwner returns the rendezvous-preferred live coordinator slot
// for partition p, excluding any slot for which skip returns true. -1
// if no candidate is live. Slots with a wedged disk are avoided as long
// as a healthy candidate exists — the simulation twin of the avoid-
// lease verbs the production lease protocol uses to keep a released
// partition from orbiting back to its sick ex-owner — and chosen only
// as a last resort (wrong placement beats an orphaned partition).
func (w *World) preferredOwner(p int, skip func(int) bool) int {
	pick := func(avoidWedged bool) int {
		var names []string
		for i := range w.coords {
			if skip != nil && skip(i) {
				continue
			}
			if w.coords[i] != nil && !w.coords[i].alive {
				continue
			}
			if avoidWedged && w.DiskWedged(i) {
				continue
			}
			names = append(names, w.coordName(i))
		}
		best := shard.Preferred(names, p)
		for i := range w.coords {
			if w.coordName(i) == best {
				return i
			}
		}
		return -1
	}
	if o := pick(true); o >= 0 {
		return o
	}
	return pick(false)
}

// startExecutor (re)starts executor slot i: a fresh orb server on the
// slot's fixed in-memory address, hosting a task executor whose every
// implementation is the gate.
func (w *World) startExecutor(i int) error {
	name := fmt.Sprintf("exec%d", i)
	addr := "mem:" + name
	ln, err := w.net.Listen(addr)
	if err != nil {
		return fmt.Errorf("sim: start %s: %w", name, err)
	}
	reg := registry.New()
	reg.BindFallback(w.gatedFallback(name))
	srv := orb.NewServerOn(ln)
	ex := taskexec.NewExecutor(reg)
	// Executor-side metrics and spans land in the world's registry and
	// tracer, timestamped on the fake clock, so they are as deterministic
	// as the trace itself.
	ex.SetObservability(w.reg, w.tracer, w.clock)
	srv.Register(taskexec.ObjectName, ex.Servant())
	w.execs[i] = &executor{name: name, addr: addr, srv: srv, alive: true}
	return nil
}

// resolver is the coordinator's location resolver: the in-process
// naming service, gated on naming liveness.
func (w *World) resolver(location string) ([]string, error) {
	w.mu.Lock()
	up := w.namingUp
	w.mu.Unlock()
	if !up {
		return nil, errors.New("sim: naming unavailable")
	}
	return w.nam.ResolveAll(location)
}

// bootCoordinator builds coordinator slot i's stack: persistent
// registry over its store view (the shared store in single mode, a
// PartitionedStore mounting its owned partitions in sharded mode),
// gated local implementations, the hash-balanced pool invoker, and the
// engine wired to the harness's clock, probe and event tap.
func (w *World) bootCoordinator(i int, recovering bool) error {
	c := &simCoord{name: w.coordName(i), alive: true}
	var st store.Store
	if w.multi {
		// Mount only the slot's owned partitions, exactly like a
		// production coordinator holding those partitions' leases. A
		// rejoining coordinator may own nothing; it mounts nothing.
		c.ps = shard.NewPartitionedStore(w.parts)
		c.views = make(map[int]*failure.WedgeStore)
		for p := 0; p < w.parts; p++ {
			if w.owner[p] == i {
				w.mountView(c, p)
			}
		}
		st = c.ps
	} else {
		st = w.st
	}
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	if recovering {
		if _, err := preg.Recover(); err != nil {
			return fmt.Errorf("sim: recover store: %w", err)
		}
	}
	reg := registry.New()
	reg.BindFallback(w.gatedFallback(c.name))
	ecfg := w.cfg.Engine
	ecfg.Clock = w.clock
	ecfg.Probe = (*worldProbe)(w)
	ecfg.EventTap = w.tap
	ecfg.Metrics = w.reg
	ecfg.Tracer = w.tracer
	if w.cfg.Executors > 0 {
		inv, err := taskexec.NewPoolInvoker(w.resolver, taskexec.PoolConfig{
			// No orb-level retries (-1): a retry backoff would park on
			// the shared FakeClock and stall the deterministic drive;
			// failover across members replaces it. No call deadline (-1):
			// a gated activation legitimately holds its call open until
			// the driver releases it, and a wall-time deadline firing
			// under a loaded machine would inject a nondeterministic
			// failover. Concurrent dispatches to one executor share its
			// one multiplexed connection and gate concurrently on the
			// server (the barrier needs every in-flight dispatch gated;
			// none queues behind another).
			Client: orb.ClientConfig{
				Retries: -1, CallTimeout: -1,
				Dialer: w.net.Dial, Clock: w.clock,
			},
			Balance: taskexec.BalanceHash,
			Clock:   w.clock,
			Metrics: w.reg,
			Tracer:  w.tracer,
		})
		if err != nil {
			return err
		}
		c.inv = inv
		ecfg.RemoteInvoker = inv.Invoke
	}
	c.preg = preg
	c.eng = engine.New(preg, reg, ecfg)
	w.coords[i] = c
	return nil
}

// worldProbe adapts World to engine.Probe without exporting Park/Wake
// as driver API.
type worldProbe World

// Park implements engine.Probe.
func (p *worldProbe) Park(id string, inflight, armed int) {
	w := (*World)(p)
	w.mu.Lock()
	if t, ok := w.insts[id]; ok {
		t.parked, t.inflight, t.armed = true, inflight, armed
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Wake implements engine.Probe.
func (p *worldProbe) Wake(id string) {
	w := (*World)(p)
	w.mu.Lock()
	if t, ok := w.insts[id]; ok {
		t.parked = false
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// tap receives every engine event (on the emitting controller
// goroutine) and buffers it for the next trace drain, maintaining the
// armed-delay index AdvanceToNext reads.
func (w *World) tap(ev engine.Event) {
	w.mu.Lock()
	w.events = append(w.events, ev)
	key := ev.Instance + "|" + ev.Task
	switch ev.Kind {
	case engine.EventTimerArmed:
		w.armed[key] = ev.Deadline
	case engine.EventTimerFired, engine.EventTaskCompleted, engine.EventTaskAborted, engine.EventTaskFailed:
		delete(w.armed, key)
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// gatedFallback is the universal implementation: register a gate entry
// and block until the driver releases it (or the engine cancels the
// activation — local activations only; remote contexts cannot observe
// cancellation).
func (w *World) gatedFallback(where string) func(code string) (registry.Func, bool) {
	return func(code string) (registry.Func, bool) {
		return func(ctx registry.Context) (registry.Result, error) {
			e := &gateEntry{
				key: gateKey{
					inst: ctx.Instance(), path: ctx.TaskPath(),
					attempt: ctx.Attempt(), iteration: ctx.Iteration(),
					where: where,
				},
				code:    code,
				inputs:  ctx.Inputs(),
				release: make(chan releaseCmd, 1),
			}
			w.addGate(e)
			defer w.dropGate(e)
			select {
			case cmd := <-e.release:
				if cmd.err != nil {
					return registry.Result{}, cmd.err
				}
				return registry.Result{Output: cmd.outcome, Objects: cmd.objects}, nil
			case <-ctx.Done():
				return registry.Result{}, errors.New("sim: activation cancelled")
			}
		}, true
	}
}

// addGate publishes a gate entry. A stale entry under the same key (a
// zombie from a killed component whose goroutine has not yet noticed)
// is overwritten; its deferred dropGate will no-op.
func (w *World) addGate(e *gateEntry) {
	w.mu.Lock()
	w.gate[e.key] = e
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// dropGate withdraws an entry if it is still the one published.
func (w *World) dropGate(e *gateEntry) {
	w.mu.Lock()
	if w.gate[e.key] == e {
		delete(w.gate, e.key)
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// takeGate atomically claims an entry for release: after takeGate
// returns it, no other release can claim it and the barrier no longer
// counts it as gated (the activation is "in flight, ungated" until its
// completion is consumed).
func (w *World) takeGate(key gateKey) (*gateEntry, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.gate[key]
	if !ok {
		return nil, false
	}
	delete(w.gate, key)
	w.activity++
	w.cond.Broadcast()
	return e, true
}

// syncWheel flushes every live coordinator's timing wheel: after it
// returns, every fire due at the current clock reading has been
// delivered into its instance's timer queue (where QueuedWork sees it).
func (w *World) syncWheel() {
	for _, c := range w.coords {
		if c != nil && c.alive {
			c.eng.Timers().Sync()
		}
	}
}

// quietLocked reports whether the system is provably unable to make
// progress: every tracked controller is parked with empty queues, and
// its in-flight workers are all blocked in gate entries. Callers hold
// w.mu.
//
// Soundness: inflight is loop-owned and frozen while the controller is
// parked. A worker between dispatch and gate registration (or between
// release and completion delivery) keeps inflight > gated; a buffered
// completion keeps QueuedWork > 0; wheel-side work is excluded by
// syncWheel before the check; and no driver action is concurrent with
// settle, so nothing arms or starts behind the barrier's back.
func (w *World) quietLocked() bool {
	gated := make(map[string]int, len(w.gate))
	for k := range w.gate {
		gated[k.inst]++
	}
	for id, t := range w.insts {
		if t.inst == nil || !t.parked {
			return false
		}
		if t.inst.QueuedWork() != 0 {
			return false
		}
		if t.inflight != gated[id] {
			return false
		}
	}
	return true
}

// settle blocks until the world is quiescent: wheel synced, every
// controller parked, every in-flight activation gated, and no activity
// observed across a full re-check (the double scan closes the window
// where a wheel fire was in flight during the first check).
func (w *World) settle() error {
	stop := make(chan struct{})
	go func() {
		// Watchdog against harness bugs; wall time by definition.
		wall := timers.WallClock{}
		select {
		case <-wall.Wake(wall.Now().Add(settleTimeout)):
			w.mu.Lock()
			w.wedged = true
			w.cond.Broadcast()
			w.mu.Unlock()
		case <-stop:
		}
	}()
	defer close(stop)
	for {
		w.syncWheel()
		w.mu.Lock()
		for !w.quietLocked() && !w.wedged {
			w.cond.Wait()
		}
		if w.wedged {
			w.mu.Unlock()
			return errors.New("sim: settle watchdog expired: the world did not quiesce (wedged harness or blocked implementation)")
		}
		c := w.activity
		w.mu.Unlock()
		w.syncWheel()
		w.mu.Lock()
		ok := w.activity == c && w.quietLocked()
		w.mu.Unlock()
		if ok {
			return nil
		}
	}
}

// Metric returns the summed value of the named metric series across
// every label set (histograms contribute their observation count).
// Every driver method settles the world before returning, so between
// actions the registry is frozen: a Metric read is a property of the
// action sequence, not of scheduling — which is what lets scenario
// files assert on it (`expect metric NAME == N`).
func (w *World) Metric(name string) int64 { return w.reg.Total(name) }

// MetricsSnapshot returns the full registry snapshot at the last settle
// barrier (every series with labels, values and histogram buckets).
func (w *World) MetricsSnapshot() []obs.Series { return w.reg.Snapshot() }

// Spans returns the world's recorded spans for one instance, stitched
// across coordinators, executors and crash/recover generations (the
// whole world shares one tracer).
func (w *World) Spans(instance string) []obs.Span { return w.tracer.ByInstance(instance) }

// Compile registers a schema under name for Instantiate. Schemas using
// per-activation deadlines are rejected: the engine abandons a
// deadline-expired activation without cancelling it, which would leak
// its gate entry and wedge the barrier.
func (w *World) Compile(name, src string) error {
	sch, err := sema.CompileSource(name, []byte(src))
	if err != nil {
		return err
	}
	var bad string
	for _, t := range sch.AllTasks() {
		if t.Implementation["deadline"] != "" {
			bad = t.Path()
		}
	}
	if bad != "" {
		return fmt.Errorf("sim: schema %s: task %s sets a \"deadline\" implementation property; activation deadlines are not simulable", name, bad)
	}
	w.mu.Lock()
	w.compiled[name] = sch
	w.mu.Unlock()
	return nil
}

// Bind scripts the outcomes of an implementation code: successive
// released activations of code take the next outcome in the list, and
// the last one sticks. Unscripted codes default to the first declared
// plain outcome of their task class.
func (w *World) Bind(code string, outcomes ...string) {
	w.mu.Lock()
	w.binds[code] = &bindSeq{outcomes: outcomes}
	w.mu.Unlock()
}

// Close tears the world down: coordinators first (so no dispatches are
// in flight), then the executors. Safe to call once at the end of a
// run; not concurrent with driver actions.
func (w *World) Close() {
	for i, c := range w.coords {
		if c != nil && c.alive {
			w.stopCoordinator(i)
		}
	}
	for _, ex := range w.execs {
		if ex != nil && ex.alive {
			ex.srv.Sever()
			w.releaseWhere(ex.name, errors.New("sim: executor crashed"))
			ex.srv.Close()
			ex.alive = false
		}
	}
}
