package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/orb"
	"repro/internal/registry"
	"repro/internal/taskexec"
	"repro/internal/workload"
)

// LoadConfig shapes one executor-pool load scenario.
type LoadConfig struct {
	// Executors is the pool size M (in-process executor nodes registered
	// under one location).
	Executors int
	// ChainLen is the number of located stages per workflow instance
	// (each stage is one remote dispatch). Default 4.
	ChainLen int
	// TaskDelay is the simulated work per activation on the executor
	// side; each executor node works on one activation at a time.
	// Default 2ms.
	TaskDelay time.Duration
	// Balance selects the pool balancing strategy (taskexec constants).
	// Default round-robin.
	Balance string
	// MaxRemoteInflight bounds concurrent remote dispatches per instance
	// (engine backpressure gate). 0 = unbounded.
	MaxRemoteInflight int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Executors == 0 {
		c.Executors = 1
	}
	if c.ChainLen == 0 {
		c.ChainLen = 4
	}
	if c.TaskDelay == 0 {
		c.TaskDelay = 2 * time.Millisecond
	}
	return c
}

// LoadReport aggregates one closed-loop run.
type LoadReport struct {
	Instances       int
	Elapsed         time.Duration
	InstancesPerSec float64
	// Activations is the number of remote dispatches measured.
	Activations int
	// ActP50/P90/P99 are remote-activation latency percentiles
	// (dispatch call to result, including queueing and failover).
	ActP50, ActP90, ActP99 time.Duration
}

// String renders the report's one-line summary.
func (r LoadReport) String() string {
	return fmt.Sprintf("%d instances in %v (%.1f inst/s); activation p50=%v p90=%v p99=%v",
		r.Instances, r.Elapsed.Round(time.Millisecond), r.InstancesPerSec,
		r.ActP50.Round(time.Microsecond), r.ActP90.Round(time.Microsecond), r.ActP99.Round(time.Microsecond))
}

// LatencyRecorder collects remote-activation latencies; Wrap decorates
// any RemoteInvoker with timing.
type LatencyRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Wrap times every dispatch through inv.
func (l *LatencyRecorder) Wrap(inv engine.RemoteInvoker) engine.RemoteInvoker {
	return func(req engine.RemoteRequest) (registry.Result, error) {
		begin := wall.Now()
		res, err := inv(req)
		l.add(wall.Now().Sub(begin))
		return res, err
	}
}

func (l *LatencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

// take drains the recorded samples.
func (l *LatencyRecorder) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.durs
	l.durs = nil
	return out
}

// percentile returns the p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// LoadEnv is a self-contained executor-pool scenario: M in-process
// executor nodes registered under one location, and an engine whose
// located activations dispatch to them through a pool invoker. It is
// the substrate of cmd/wfload's self-hosted mode and the wfbench S3
// rows.
type LoadEnv struct {
	cfg     LoadConfig
	naming  *orb.Naming
	servers []*orb.Server
	invoker *taskexec.Invoker
	env     *Env
	schema  *coreSchema
	lat     *LatencyRecorder
}

// LoadLocation is the location name the pool's members register under.
const LoadLocation = "pool"

// NewLoadEnv boots the scenario.
func NewLoadEnv(cfg LoadConfig) (*LoadEnv, error) {
	cfg = cfg.withDefaults()
	le := &LoadEnv{cfg: cfg, naming: orb.NewNaming(), lat: NewLatencyRecorder()}

	for i := 0; i < cfg.Executors; i++ {
		impls := registry.New()
		// A node is one worker: its activations run one at a time, which
		// is what makes the pool, not the wire, the scenario's bottleneck
		// (the orb carries any number of concurrent calls per connection).
		worker := make(chan struct{}, 1)
		impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
			worker <- struct{}{}
			defer func() { <-worker }()
			if cfg.TaskDelay > 0 {
				<-wall.Wake(wall.Now().Add(cfg.TaskDelay))
			}
			return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
		})
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			le.Close()
			return nil, err
		}
		srv.Register(taskexec.ObjectName, taskexec.NewExecutor(impls).Servant())
		le.servers = append(le.servers, srv)
		le.naming.BindMember(LoadLocation, srv.Addr(), 0)
	}

	inv, err := taskexec.NewPoolInvoker(le.naming.ResolveAll, taskexec.PoolConfig{
		Client:       orb.ClientConfig{Retries: 1, RetryDelay: time.Millisecond},
		Balance:      cfg.Balance,
		BlacklistFor: 500 * time.Millisecond,
	})
	if err != nil {
		le.Close()
		return nil, err
	}
	le.invoker = inv

	le.env = NewEnv(nil, engine.Config{
		Ephemeral:         true,
		RemoteInvoker:     le.lat.Wrap(inv.Invoke),
		MaxRemoteInflight: cfg.MaxRemoteInflight,
	})
	workload.Bind(le.env.Impls)
	le.schema = Compile("loadchain", workload.LocatedChain(cfg.ChainLen, LoadLocation))
	return le, nil
}

// KillExecutor hard-stops pool member i (its server drops every
// connection, the moral equivalent of SIGKILL for an in-process node).
// The naming registration is left in place: liveness is the pool's
// problem, exactly as with a crashed remote node whose heartbeat has
// not yet expired.
func (le *LoadEnv) KillExecutor(i int) {
	le.servers[i].Close()
}

// Stats exposes the pool's per-endpoint dispatch counters.
func (le *LoadEnv) Stats() []taskexec.EndpointStats { return le.invoker.Stats() }

// Run drives the closed loop: workers concurrent instances, total
// instances overall; each worker runs complete instances back to back.
// midpoint, when non-nil, is called exactly once as soon as half the
// instances have completed (the hook the kill-one-mid-run scenario
// uses).
func (le *LoadEnv) Run(workers, total int, midpoint func()) (LoadReport, error) {
	return RunClosedLoopMid(le.env, le.schema, le.lat, workers, total, midpoint)
}

// RunClosedLoop drives workers concurrent complete-instance loops over
// env until total instances have run, reporting throughput and the
// activation latencies lat recorded. Shared by the self-hosted LoadEnv
// and cmd/wfload's external mode.
func RunClosedLoop(env *Env, schema *coreSchema, lat *LatencyRecorder, workers, total int) (LoadReport, error) {
	return RunClosedLoopMid(env, schema, lat, workers, total, nil)
}

// RunClosedLoopSeed is RunClosedLoop with explicit root inputs — the
// temporal workloads (workload.TimerChain) seed the object "d" instead
// of "seed".
func RunClosedLoopSeed(env *Env, schema *coreSchema, lat *LatencyRecorder, workers, total int, seed registry.Objects) (LoadReport, error) {
	return runClosedLoop(env, schema, lat, workers, total, nil, seed)
}

// RunClosedLoopMid is RunClosedLoop with a midpoint hook, called exactly
// once as soon as half the instances have completed.
func RunClosedLoopMid(env *Env, schema *coreSchema, lat *LatencyRecorder, workers, total int, midpoint func()) (LoadReport, error) {
	return runClosedLoop(env, schema, lat, workers, total, midpoint, workload.Seed())
}

func runClosedLoop(env *Env, schema *coreSchema, lat *LatencyRecorder, workers, total int, midpoint func(), seed registry.Objects) (LoadReport, error) {
	lat.take() // reset samples
	runOne := func() error {
		res, _, err := env.Run(schema, "main", seed.Clone())
		if err != nil {
			return err
		}
		if res.Output != "done" {
			return fmt.Errorf("loadgen instance: outcome %q", res.Output)
		}
		return nil
	}
	completed, elapsed, err := RunClosedLoopFn(workers, total, midpoint, runOne)
	if err != nil {
		return LoadReport{}, err
	}

	durs := lat.take()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return LoadReport{
		Instances:       completed,
		Elapsed:         elapsed,
		InstancesPerSec: float64(completed) / elapsed.Seconds(),
		Activations:     len(durs),
		ActP50:          percentile(durs, 0.50),
		ActP90:          percentile(durs, 0.90),
		ActP99:          percentile(durs, 0.99),
	}, nil
}

// RunClosedLoopFn is the worker-pool core every closed loop shares:
// workers goroutines each call runOne back to back until total runs
// have been claimed; midpoint, when non-nil, runs exactly once as soon
// as half the runs have completed. The first runOne error stops that
// worker and fails the loop after the others drain. Returns how many
// runs completed and the wall-clock elapsed.
func RunClosedLoopFn(workers, total int, midpoint func(), runOne func() error) (int, time.Duration, error) {
	if workers <= 0 || total <= 0 {
		return 0, 0, errors.New("loadgen: workers and total must be positive")
	}
	var (
		next     atomic.Int64
		done     atomic.Int64
		midOnce  sync.Once
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	begin := wall.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n := next.Add(1); n > int64(total) {
					return
				}
				if err := runOne(); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				if d := done.Add(1); midpoint != nil && d >= int64(total)/2 {
					midOnce.Do(midpoint)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := wall.Now().Sub(begin)
	if firstErr != nil {
		return int(done.Load()), elapsed, firstErr
	}
	return int(done.Load()), elapsed, nil
}

// Close tears the scenario down.
func (le *LoadEnv) Close() {
	if le.env != nil {
		le.env.Close()
	}
	if le.invoker != nil {
		le.invoker.Close()
	}
	for _, srv := range le.servers {
		srv.Close()
	}
}
