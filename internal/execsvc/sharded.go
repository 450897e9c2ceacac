package execsvc

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/orb"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/timers"
)

// ShardedConfig tunes a ShardedClient.
type ShardedConfig struct {
	// Partitions is the topology's partition count; it must match the
	// coordinators' (keys route by hash mod partitions).
	Partitions int
	// RouteTimeout bounds how long one operation keeps retrying through
	// lease movements and coordinator deaths before giving up. It must
	// comfortably exceed lease TTL + recovery time, so a request caught
	// in a failover lands on the new owner instead of erroring. Default
	// 30s.
	RouteTimeout time.Duration
	// RetryDelay separates routing attempts. Default 50ms.
	RetryDelay time.Duration
	// Clock paces retries; tests inject a FakeClock.
	Clock timers.Clock
	// Dial creates the per-coordinator client for an endpoint; the
	// default dials the orb with a single attempt per call (the sharded
	// client owns retrying, and a fast transport failure is what lets it
	// re-resolve the owner quickly).
	Dial func(addr string) *Client
}

func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Partitions <= 0 {
		c.Partitions = shard.DefaultPartitions
	}
	if c.RouteTimeout <= 0 {
		c.RouteTimeout = 30 * time.Second
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = timers.WallClock{}
	}
	if c.Dial == nil {
		c.Dial = func(addr string) *Client {
			return NewClient(orb.Dial(addr, orb.ClientConfig{Retries: -1}))
		}
	}
	return c
}

// ShardedClient routes execution-service requests across the
// coordinator tier: each instance hashes to a partition, the partition's
// lease holder (looked up in the naming service) gets the request, and
// failures chase the lease — a not-owner refusal follows the redirect,
// a dead coordinator is retried until the lease moves to a survivor and
// the instance has been re-materialized there. Callers use it exactly
// like Client; the routing is invisible except as latency during
// failover.
type ShardedClient struct {
	naming *orb.NamingClient
	cfg    ShardedConfig

	mu      sync.Mutex
	clients map[string]*Client
}

// NewShardedClient returns a routing client over the naming service
// that arbitrates the partition leases.
func NewShardedClient(naming *orb.NamingClient, cfg ShardedConfig) *ShardedClient {
	return &ShardedClient{naming: naming, cfg: cfg.withDefaults(), clients: make(map[string]*Client)}
}

// Partitions returns the topology's partition count.
func (sc *ShardedClient) Partitions() int { return sc.cfg.Partitions }

// Close drops every cached coordinator connection.
func (sc *ShardedClient) Close() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, c := range sc.clients {
		c.Close()
	}
	sc.clients = make(map[string]*Client)
}

// client returns (creating if needed) the cached client for addr.
func (sc *ShardedClient) client(addr string) *Client {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	c, ok := sc.clients[addr]
	if !ok {
		c = sc.cfg.Dial(addr)
		sc.clients[addr] = c
	}
	return c
}

// evict closes and drops the cached client for addr after a transport
// failure, so a long-lived router does not accumulate connections to
// every coordinator address that ever held a lease. Identity-checked:
// a concurrent re-dial under the same address is left alone.
func (sc *ShardedClient) evict(addr string, c *Client) {
	sc.mu.Lock()
	cached := sc.clients[addr] == c
	if cached {
		delete(sc.clients, addr)
	}
	sc.mu.Unlock()
	if cached {
		c.Close()
	}
}

// transportFailure reports an error from a coordinator call that
// indicates the transport (not the application) failed: the remote
// returned no AppError.
func transportFailure(err error) bool {
	var ae *orb.AppError
	return err != nil && !errors.As(err, &ae)
}

// retryable classifies errors the router keeps retrying (within
// RouteTimeout): transport failures (coordinator dead or dying),
// missing lease holders, not-yet-recovered instances on a fresh owner
// ("instance not found" during the takeover window), and storage-fault
// refusals (a wedged or corrupt partition store is quarantined and its
// lease handed to a healthy peer — retrying chases the handoff exactly
// like a lease movement). Other application errors — bad schema,
// duplicate instance, task errors — are the caller's, immediately.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var ae *orb.AppError
	if !errors.As(err, &ae) {
		return true // transport failure
	}
	if _, ok := NotOwnerAddr(err); ok {
		return true
	}
	return strings.Contains(ae.Msg, engine.ErrInstanceNotFound.Error()) ||
		strings.Contains(ae.Msg, store.ErrWedged.Error()) ||
		strings.Contains(ae.Msg, store.ErrCorrupt.Error())
}

// do routes one operation to instance's owning coordinator, retrying
// through lease movement until RouteTimeout.
func (sc *ShardedClient) do(instance string, fn func(*Client) error) error {
	return sc.doDedup(instance, fn, nil)
}

// doDedup is do with at-least-once deduplication: routing retries can
// re-deliver an operation whose first reply was lost in a coordinator
// crash, so state-changing operations pass applied, which recognizes
// the error a duplicate delivery produces ("instance already exists",
// "root is executing") and turns it into success. This makes
// Instantiate, Start and Recover idempotent through the routing client
// — the price is that a genuine duplicate from the caller is also
// absorbed, which is exactly the semantics a retrying client wants.
func (sc *ShardedClient) doDedup(instance string, fn func(*Client) error, applied func(error) bool) error {
	p := shard.PartitionOf(instance, sc.cfg.Partitions)
	clock := sc.cfg.Clock
	deadline := clock.Now().Add(sc.cfg.RouteTimeout)
	redirect := ""
	var lastErr error
	for {
		addr := redirect
		redirect = ""
		if addr == "" {
			_, a, held, err := sc.naming.LeaseHolder(shard.LeaseName(p))
			switch {
			case err != nil:
				lastErr = fmt.Errorf("resolve partition %d lease: %w", p, err)
			case !held:
				lastErr = fmt.Errorf("partition %d has no lease holder", p)
			default:
				addr = a
			}
		}
		if addr != "" {
			c := sc.client(addr)
			err := fn(c)
			if err == nil {
				return nil
			}
			if errors.Is(err, orb.ErrClosed) {
				// A sibling's eviction closed this client under us; the
				// request never left. The cache hands out a fresh client.
				redirect = addr
				continue
			}
			if transportFailure(err) {
				// The coordinator is dead or dying; drop its connection so
				// the cache tracks live lease holders, not history.
				sc.evict(addr, c)
			}
			if applied != nil && applied(err) {
				return nil
			}
			lastErr = err
			if to, ok := NotOwnerAddr(err); ok && to != "" && to != addr {
				// The guard told us who owns it: go straight there.
				redirect = to
				continue
			}
			if !retryable(err) {
				return err
			}
		}
		if !clock.Now().Before(deadline) {
			return fmt.Errorf("execsvc: route %s (partition %d): %w", instance, p, lastErr)
		}
		<-clock.Wake(clock.Now().Add(sc.cfg.RetryDelay))
	}
}

// instanceExists recognizes the duplicate-Instantiate (and duplicate-
// Recover) refusal a retried delivery produces.
func instanceExists(err error) bool {
	return err != nil && strings.Contains(err.Error(), engine.ErrInstanceExists.Error())
}

// alreadyStarted recognizes the duplicate-Start refusal: once a start
// has taken effect the root is no longer waiting, so the engine reports
// "start <id>: root is <state>" for any later start.
func alreadyStarted(instance string) func(error) bool {
	marker := fmt.Sprintf("start %s: root is ", instance)
	return func(err error) bool {
		return err != nil && strings.Contains(err.Error(), marker)
	}
}

// Instantiate creates an instance on its partition's owner. Idempotent:
// a duplicate delivery (retry after a lost reply) is absorbed.
func (sc *ShardedClient) Instantiate(instance, schemaName, rootName string) error {
	return sc.doDedup(instance,
		func(c *Client) error { return c.Instantiate(instance, schemaName, rootName) },
		instanceExists)
}

// Start begins execution of an instance. Idempotent: a duplicate
// delivery (retry after a lost reply) is absorbed.
func (sc *ShardedClient) Start(instance, set string, inputs registry.Objects) error {
	return sc.doDedup(instance,
		func(c *Client) error { return c.Start(instance, set, inputs) },
		alreadyStarted(instance))
}

// Status reports status and per-task rows.
func (sc *ShardedClient) Status(instance string) (engine.InstanceStatus, []engine.TaskStatus, error) {
	var status engine.InstanceStatus
	var tasks []engine.TaskStatus
	err := sc.do(instance, func(c *Client) error {
		var e error
		status, tasks, e = c.Status(instance)
		return e
	})
	return status, tasks, err
}

// Events fetches the trace after sequence number since.
func (sc *ShardedClient) Events(instance string, since int) ([]engine.Event, error) {
	var events []engine.Event
	err := sc.do(instance, func(c *Client) error {
		var e error
		events, e = c.Events(instance, since)
		return e
	})
	return events, err
}

// WaitSettled polls until the instance settles or the timeout ends,
// re-resolving the owning coordinator between slices — a wait in flight
// when a coordinator is killed resumes against the instance's new home.
func (sc *ShardedClient) WaitSettled(instance string, timeout time.Duration) (engine.InstanceStatus, engine.Result, error) {
	const slice = 500 * time.Millisecond
	clock := sc.cfg.Clock
	deadline := clock.Now().Add(timeout)
	for {
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		if remaining > slice {
			remaining = slice
		}
		var status engine.InstanceStatus
		var res engine.Result
		err := sc.do(instance, func(c *Client) error {
			var e error
			status, res, e = c.waitSlice(instance, remaining)
			return e
		})
		if err != nil {
			return status, res, err
		}
		if Settled(status) || clock.Now().After(deadline) {
			return status, res, nil
		}
	}
}

// AbortTask force-aborts a task.
func (sc *ShardedClient) AbortTask(instance, path, outcome string) error {
	return sc.do(instance, func(c *Client) error { return c.AbortTask(instance, path, outcome) })
}

// Reconfigure applies reconfiguration operations.
func (sc *ShardedClient) Reconfigure(instance string, ops ...engine.Op) error {
	return sc.do(instance, func(c *Client) error { return c.Reconfigure(instance, ops...) })
}

// Stop halts an instance.
func (sc *ShardedClient) Stop(instance string) error {
	return sc.do(instance, func(c *Client) error { return c.Stop(instance) })
}

// Recover rebuilds a persisted instance on its partition's owner.
// Idempotent: if the instance is already live there (a previous attempt
// or the owner's own takeover recovered it), that is success.
func (sc *ShardedClient) Recover(instance string) error {
	return sc.doDedup(instance,
		func(c *Client) error { return c.Recover(instance) },
		instanceExists)
}

// Instances merges the live instance lists of every coordinator that
// currently holds a lease. Unreachable holders are skipped (their
// instances are in flux anyway); the result is sorted and deduplicated.
func (sc *ShardedClient) Instances() ([]string, error) {
	addrs := make(map[string]bool)
	for p := 0; p < sc.cfg.Partitions; p++ {
		_, addr, held, err := sc.naming.LeaseHolder(shard.LeaseName(p))
		if err != nil {
			return nil, fmt.Errorf("resolve partition %d lease: %w", p, err)
		}
		if held {
			addrs[addr] = true
		}
	}
	seen := make(map[string]bool)
	var out []string
	for addr := range addrs {
		c := sc.client(addr)
		ids, err := c.Instances()
		if err != nil {
			if transportFailure(err) {
				sc.evict(addr, c)
			}
			continue
		}
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
