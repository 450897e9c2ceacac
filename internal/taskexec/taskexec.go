// Package taskexec implements remote task executors: orb servants that
// host task implementations and run activations dispatched to them by
// the workflow engine when a task carries a "location" implementation
// property (Section 4.3 lists "location" and "agent" among the
// implementation keywords; this realises them over the orb substrate).
//
// Deployment shape: each executor node registers its implementation
// registry under the well-known "task-executor" object and binds its
// location name in the naming service; the engine-side Invoker resolves
// locations through naming and dispatches activations. Remote failures
// surface as system-level failures, so the engine's automatic retry
// applies unchanged. A remote activation runs with no transaction, so a
// located task may not be atomic (sema rejects an abort outcome there).
package taskexec

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/registry"
	"repro/internal/timers"
	"repro/internal/txn"
)

// ObjectName is the executor's well-known servant name.
const ObjectName = "task-executor"

// executeReq is one remote activation.
type executeReq struct {
	Code      string
	Instance  string
	TaskPath  string
	InputSet  string
	Attempt   int
	Iteration int
	Inputs    registry.Objects
}

// executeResp carries the implementation's result. SysErr reports a
// system-level failure (unbound code, panic) distinct from application
// outcomes. Spans carries the executor-side trace spans of this
// activation back to the dispatching coordinator, where they are
// imported into its tracer — that is how a cross-process activation
// reads as one stitched trace (gob decodes a missing field as nil, so
// older executors interoperate).
type executeResp struct {
	Output  string
	Objects registry.Objects
	SysErr  string
	Spans   []obs.Span
}

// remoteCtx adapts an executeReq to registry.Context on the executor
// side. Marks are unavailable remotely (single request/reply), and
// remote tasks run non-atomically from the executor's point of view —
// atomicity is coordinated by the engine's side.
type remoteCtx struct {
	req  executeReq
	done chan struct{}
}

var _ registry.Context = (*remoteCtx)(nil)

func (c *remoteCtx) Instance() string         { return c.req.Instance }
func (c *remoteCtx) TaskPath() string         { return c.req.TaskPath }
func (c *remoteCtx) InputSet() string         { return c.req.InputSet }
func (c *remoteCtx) Inputs() registry.Objects { return c.req.Inputs }
func (c *remoteCtx) Attempt() int             { return c.req.Attempt }
func (c *remoteCtx) Iteration() int           { return c.req.Iteration }
func (c *remoteCtx) Txn() *txn.Txn            { return nil }
func (c *remoteCtx) Done() <-chan struct{}    { return c.done }

func (c *remoteCtx) Mark(name string, _ registry.Objects) error {
	return fmt.Errorf("mark %s: remote activations cannot produce marks", name)
}

// Executor hosts implementations and serves remote activations.
type Executor struct {
	impls *registry.Registry

	clk             timers.Clock
	tracer          *obs.Tracer
	mExecutions     *obs.Counter
	mExecuteSeconds *obs.Histogram
}

// NewExecutor returns an executor over the given implementation
// registry, instrumented against the process-default observability
// (override with SetObservability before Servant).
func NewExecutor(impls *registry.Registry) *Executor {
	e := &Executor{impls: impls}
	e.SetObservability(obs.Default(), obs.DefaultTracer(), nil)
	return e
}

// SetObservability re-points the executor's metrics registry, tracer
// and span clock (nil clk selects wall time). Call before Servant.
func (e *Executor) SetObservability(reg *obs.Registry, tr *obs.Tracer, clk timers.Clock) {
	if clk == nil {
		clk = timers.WallClock{}
	}
	e.clk = clk
	e.tracer = tr
	e.mExecutions = reg.Counter(obs.MTaskExecutions)
	e.mExecuteSeconds = reg.Histogram(obs.MTaskExecuteSeconds, nil)
}

// Impls exposes the executor's registry (for binding implementations).
func (e *Executor) Impls() *registry.Registry { return e.impls }

// Servant exports the executor over the orb.
func (e *Executor) Servant() *orb.Servant {
	sv := orb.NewServant()
	orb.MethodMeta(sv, "execute", func(meta map[string]string, req executeReq) (executeResp, error) {
		start := e.clk.Now()
		e.mExecutions.Inc()
		resp := e.execute(req)
		e.mExecuteSeconds.ObserveSince(e.clk, start)
		// The execution span joins the dispatching coordinator's trace:
		// the rpc span's IDs ride the call metadata, and the span rides
		// the reply back (plus the local tracer, for this process's own
		// debug endpoint).
		if tid := meta["trace-id"]; tid != "" {
			sp := obs.Span{
				TraceID: tid, SpanID: obs.NewID(), Parent: meta["span-id"],
				Name: "execute", Instance: req.Instance, Task: req.TaskPath,
				Start: start, End: e.clk.Now(), Err: resp.SysErr,
				Attrs: map[string]string{"code": req.Code, "attempt": fmt.Sprint(req.Attempt)},
			}
			e.tracer.Record(sp)
			resp.Spans = append(resp.Spans, sp)
		}
		return resp, nil
	})
	return sv
}

// execute runs one remote activation through the bound implementation.
func (e *Executor) execute(req executeReq) executeResp {
	f, err := e.impls.Lookup(req.Code)
	if err != nil {
		return executeResp{SysErr: err.Error()}
	}
	ctx := &remoteCtx{req: req, done: make(chan struct{})}
	res, err := runSafely(f, ctx)
	if err != nil {
		return executeResp{SysErr: err.Error()}
	}
	return executeResp{Output: res.Output, Objects: res.Objects}
}

// runSafely converts implementation panics into errors so a bad remote
// implementation cannot kill the executor.
func runSafely(f registry.Func, ctx registry.Context) (res registry.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("implementation panic: %v", p)
		}
	}()
	return f(ctx)
}

// Invoker is the engine-side dispatcher: it resolves a task's location
// to the set of executor endpoints currently serving it, balances
// activations across the set (round-robin or least-inflight), tracks
// per-endpoint health (failed members are temporarily blacklisted; each
// endpoint's one multiplexed orb connection carries all its concurrent
// activations and re-dials itself) and fails a dispatch over to surviving members before
// surfacing a system-level failure to the engine's retry/abort mapping.
type Invoker struct {
	resolveSet SetResolver
	cfg        PoolConfig

	mDispatchSeconds *obs.Histogram
	mFailovers       *obs.Counter

	mu        sync.Mutex
	endpoints map[string]*endpoint
	resolved  map[string]*resolvedSet
	rr        uint64
	closed    bool
}

// Close closes every endpoint's client and retires the invoker: calls
// in flight fail at once with orb.ErrClosed, and dispatches that wake
// after Close — including one mid-failover whose current member just
// died — stop instead of re-running the activation on the next member.
// Without this, a dispatch abandoned by its (shut down) owner could keep
// re-dispatching on someone else's executors.
func (inv *Invoker) Close() {
	inv.mu.Lock()
	inv.closed = true
	clients := make([]*orb.Client, 0, len(inv.endpoints))
	for _, ep := range inv.endpoints {
		clients = append(clients, ep.client)
	}
	inv.endpoints = make(map[string]*endpoint)
	inv.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// Invoke implements engine.RemoteInvoker. One call is one activation
// dispatch: resolve the member set, try members in balance order, and
// return the first member's verdict — failing over to the next member
// only on transport-level failures (the activation never reached an
// implementation), so the engine's at-least-once retry accounting is
// preserved.
func (inv *Invoker) Invoke(req engine.RemoteRequest) (registry.Result, error) {
	addrs, err := inv.resolve(req.Location)
	if err != nil {
		return registry.Result{}, fmt.Errorf("resolve location %q: %w", req.Location, err)
	}
	if len(addrs) == 0 {
		return registry.Result{}, fmt.Errorf("resolve location %q: empty member set", req.Location)
	}
	order := inv.plan(addrs, fmt.Sprintf("%s|%s|%s|%d|%d", req.Location, req.Instance, req.TaskPath, req.Attempt, req.Iteration))
	if inv.cfg.MaxFailover > 0 && len(order) > inv.cfg.MaxFailover {
		order = order[:inv.cfg.MaxFailover]
	}
	var lastErr error
	for nth, addr := range order {
		ep := inv.acquire(addr)
		if ep == nil {
			if lastErr == nil {
				lastErr = errors.New("invoker closed")
			}
			return registry.Result{}, fmt.Errorf("remote execute at %q: invoker closed: %w", req.Location, lastErr)
		}
		if nth > 0 {
			// Reaching a second member means the previous one failed at
			// the transport level: a pool failover.
			inv.mFailovers.Inc()
		}
		// The rpc span covers one member round-trip and parents the
		// executor-side execute span; its IDs ride the call metadata.
		// Untraced dispatches skip span minting entirely.
		start := inv.cfg.Clock.Now()
		var sp obs.Span
		var meta map[string]string
		if req.TraceID != "" {
			sp = obs.Span{
				TraceID: req.TraceID, SpanID: obs.NewID(), Parent: req.SpanID,
				Name: "rpc", Instance: req.Instance, Task: req.TaskPath,
				Start: start,
				Attrs: map[string]string{"endpoint": addr, "code": req.Code},
			}
			meta = map[string]string{"trace-id": req.TraceID, "span-id": sp.SpanID}
		}
		resp, err := orb.CallMeta[executeReq, executeResp](ep.client, ObjectName, "execute", meta, executeReq{
			Code: req.Code, Instance: req.Instance, TaskPath: req.TaskPath,
			InputSet: req.InputSet, Attempt: req.Attempt, Iteration: req.Iteration,
			Inputs: req.Inputs,
		})
		inv.release(ep, err != nil)
		inv.mDispatchSeconds.ObserveSince(inv.cfg.Clock, start)
		if req.TraceID != "" {
			sp.End = inv.cfg.Clock.Now()
			if err != nil {
				sp.Err = err.Error()
			}
			inv.cfg.Tracer.Record(sp)
			inv.cfg.Tracer.Import(resp.Spans)
		}
		if err != nil {
			lastErr = fmt.Errorf("member %s: %w", addr, err)
			continue
		}
		if resp.SysErr != "" {
			// The executor ran (or refused) the activation: an
			// executor-level system failure, not a membership problem —
			// surface it to the engine rather than re-running elsewhere.
			return registry.Result{}, errors.New(resp.SysErr)
		}
		return registry.Result{Output: resp.Output, Objects: resp.Objects}, nil
	}
	return registry.Result{}, fmt.Errorf("remote execute at %q: all %d members failed: %w", req.Location, len(order), lastErr)
}

// Ensure the adapter satisfies the engine's hook type.
var _ engine.RemoteInvoker = (*Invoker)(nil).Invoke
