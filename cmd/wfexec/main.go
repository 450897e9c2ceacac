// Command wfexec runs the Workflow Execution Service (Fig. 4) as a
// standalone daemon: it coordinates workflow instances whose schemas come
// from a repository service, with dependency state in a durable store so
// instances survive restarts (pass -recover to resume them).
//
// The -store flag selects the persistence backend: "wal" (default) is
// the group-commit log-structured store, "mem" an in-memory store for
// throwaway runs (no state survives the process).
//
// Task implementations resolve through the builtin pattern schemes
// ("fixed:done", "sleep:50ms:done", "fail:2:done"); embedding
// applications bind real Go functions instead (see the examples).
//
// With -naming, tasks carrying a "location" implementation property are
// dispatched to the executor pool registered under that location
// (cmd/wftask members): balanced per -balance, failed over across
// members, and optionally bounded by -max-remote backpressure.
//
// Temporal coordination is durable: tasks with a "delay" implementation
// property fire on a crash-safe timing wheel (a delay pending when the
// daemon is killed resumes at its original absolute deadline under
// -recover, not from zero), and `wfadmin schedule` registers
// delayed/periodic instantiation whose schedules persist in the same
// store and are re-armed by -recover.
//
// With -shard the daemon joins the sharded coordinator tier instead of
// running standalone: instances hash to one of -partitions partitions,
// partition ownership is arbitrated by leases in the naming service, and
// this coordinator serves exactly the partitions it currently holds.
// -dir then names the shared state root (each partition persists in its
// own part-NNN subdirectory); a lease won triggers scoped recovery of
// that partition's instances, a lease lost stops them so the next owner
// can take over. Requests for foreign instances are refused with a
// redirect to the owner (see execsvc.ShardedClient).
//
// With -debug-addr the daemon additionally serves its observability
// endpoints over HTTP: /metrics (Prometheus text), /metrics.json,
// /trace?instance=ID (the stitched activation trace) and
// /debug/pprof/*. The same data is reachable through the orb via
// `wfadmin metrics` and `wfadmin trace`.
//
// Usage:
//
//	wfexec -addr 127.0.0.1:7002 -dir ./exec-state -repo 127.0.0.1:7001 [-store wal|mem]
//	       [-naming host:port] [-balance roundrobin|leastinflight|hash] [-max-remote N] [-recover]
//	wfexec -shard -naming 127.0.0.1:7000 -addr 127.0.0.1:7002 -dir ./shared-state \
//	       -repo 127.0.0.1:7001 [-partitions N] [-lease-ttl 2s] [-lease-renew 500ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/script/sema"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/txn"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7002", "listen address")
	dir := flag.String("dir", "wfexec-state", "state directory (wal store); with -shard, the tier's shared state root")
	storeKind := flag.String("store", "wal", "persistence backend: wal (group-commit log) or mem (volatile)")
	repoAddr := flag.String("repo", "127.0.0.1:7001", "repository service address")
	naming := flag.String("naming", "", "naming service address to register with; also enables pooled remote dispatch of located tasks")
	balance := flag.String("balance", taskexec.BalanceRoundRobin, "executor-pool balancing: roundrobin, leastinflight or hash (dispatch-order independent)")
	maxRemote := flag.Int("max-remote", 0, "max concurrent remote dispatches per instance (0 = unbounded)")
	doRecover := flag.Bool("recover", false, "recover persisted instances at startup (single-coordinator mode; sharded recovery is per-partition and automatic)")
	noSync := flag.Bool("nosync", false, "disable fsync on writes (faster, less durable)")
	retries := flag.Int("retries", 3, "automatic retries for system-level task failures")
	doShard := flag.Bool("shard", false, "join the sharded coordinator tier (requires -naming)")
	partitions := flag.Int("partitions", shard.DefaultPartitions, "partition count of the sharded tier (must match every coordinator and client)")
	coordID := flag.String("coord-id", "", "stable coordinator identity for lease holding (default: the listen address)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "partition lease TTL; a coordinator that misses renewal this long loses its partitions")
	leaseRenew := flag.Duration("lease-renew", 0, "lease renewal interval (default TTL/3)")
	wedgeOnUSR1 := flag.Bool("wedge-on-usr1", false, "TESTING (with -shard): SIGUSR1 wedges every mounted partition store, as if the disk died under the WAL — drives the quarantine/degrade path; used by scripts/e2e_diskfault.sh")
	debugAddr := flag.String("debug-addr", "", "opt-in observability HTTP listener (/metrics, /metrics.json, /trace, /debug/pprof); empty disables")
	flag.Parse()

	if *debugAddr != "" {
		ds, err := obs.StartDebug(*debugAddr, obs.Default(), obs.DefaultTracer())
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfexec: debug listener:", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("debug endpoints on http://%s/ (metrics, trace, pprof)\n", ds.Addr())
	}

	var err error
	if *doShard {
		err = runShard(*addr, *dir, *storeKind, *repoAddr, *naming, *balance, *noSync,
			*retries, *maxRemote, *partitions, *coordID, *leaseTTL, *leaseRenew, *doRecover, *wedgeOnUSR1)
	} else {
		err = run(*addr, *dir, *storeKind, *repoAddr, *naming, *balance, *doRecover, *noSync, *retries, *maxRemote)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfexec:", err)
		os.Exit(1)
	}
}

// wireStoreMetrics points a WAL-backed store at the process metrics
// registry (fsync count/latency, group-commit coalescing, wedges);
// other backends are unobserved.
func wireStoreMetrics(st store.Store) {
	if ws, ok := st.(*store.WALStore); ok {
		ws.SetMetrics(obs.Default(), nil)
	}
}

func run(addr, dir, storeKind, repoAddr, naming, balance string, doRecover, noSync bool, retries, maxRemote int) error {
	fs, closeStore, err := store.Open(storeKind, dir, !noSync)
	if err != nil {
		return err
	}
	defer closeStore()
	wireStoreMetrics(fs)
	reg := persist.NewRegistry(fs, txn.NewManager(fs), nil)
	if n, err := reg.Recover(); err != nil {
		return fmt.Errorf("recover transactions: %w", err)
	} else if n > 0 {
		fmt.Printf("rolled %d in-doubt transactions forward\n", n)
	}

	impls := registry.New()
	impls.BindFallback(registry.Builtin)
	cfg := engine.Config{MaxRetries: retries, MaxRemoteInflight: maxRemote}
	var namingClient *orb.NamingClient
	if naming != "" {
		// One client serves both pool resolution and (below) the
		// service's own registration. Located tasks dispatch to
		// executor pools resolved through the naming service: every
		// member set is re-resolved per dispatch, balanced per
		// -balance, and failures fail over to surviving members before
		// the engine's retry policy is consulted.
		namingClient = orb.NewNamingClient(orb.Dial(naming, orb.ClientConfig{}))
		invoker, err := taskexec.NewPoolInvoker(namingClient.ResolveAll, taskexec.PoolConfig{
			Balance: balance,
			// Don't pay one naming RPC per dispatch; stale-set fallback
			// keeps dispatch running across naming-service restarts.
			ResolveCache: time.Second,
			Metrics:      obs.Default(),
			Tracer:       obs.DefaultTracer(),
		})
		if err != nil {
			return err
		}
		defer invoker.Close()
		cfg.RemoteInvoker = invoker.Invoke
	}
	eng := engine.New(reg, impls, cfg)
	defer eng.Close()

	repoClient := repository.NewClient(orb.Dial(repoAddr, orb.ClientConfig{}))
	svc := execsvc.New(eng, execsvc.FromRepositoryClient(repoClient))

	// Scheduled instantiation (wfadmin schedule ...): schedules persist
	// in the same store as instance state and share the engine's timing
	// wheel and clock.
	sched := execsvc.NewScheduler(svc, fs)
	svc.SetScheduler(sched)
	defer sched.Close()

	if doRecover {
		ids, err := engine.ListPersisted(fs)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := svc.Recover(id); err != nil {
				fmt.Fprintf(os.Stderr, "recover instance %s: %v\n", id, err)
				continue
			}
			fmt.Printf("recovered instance %s\n", id)
		}
		// Schedules re-arm only after every instance is recovered: a
		// past-due schedule fires a catch-up run immediately, and that
		// new instance must not race the recovery listing above.
		if n, err := sched.Recover(); err != nil {
			return fmt.Errorf("recover schedules: %w", err)
		} else if n > 0 {
			fmt.Printf("re-armed %d schedules\n", n)
		}
	}

	server, err := orb.NewServer(addr)
	if err != nil {
		return err
	}
	defer server.Close()
	server.Register(execsvc.ObjectName, svc.Servant())

	if namingClient != nil {
		if err := namingClient.Bind(execsvc.ObjectName, server.Addr()); err != nil {
			return fmt.Errorf("register with naming service: %w", err)
		}
	}
	fmt.Printf("workflow execution service on %s (repository %s, state in %s)\n", server.Addr(), repoAddr, dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

// runShard boots one coordinator of the sharded tier. The engine runs
// over a PartitionedStore: each partition's state lives in its own
// part-NNN subdirectory of the shared root, mounts when this coordinator
// wins the partition's lease (after a scoped write-ahead-log roll-forward
// and re-materialization of its instances) and unmounts when the lease is
// lost. The instantiation scheduler is disabled — its "sched/" records
// are tier-global, not partitioned, so scheduling stays on the
// single-coordinator topology.
func runShard(addr, dir, storeKind, repoAddr, naming, balance string, noSync bool,
	retries, maxRemote, partitions int, coordID string, ttl, renew time.Duration, doRecover, wedgeOnUSR1 bool) error {
	if naming == "" {
		return fmt.Errorf("-shard requires -naming (the naming service arbitrates partition leases)")
	}
	if storeKind == "mem" {
		return fmt.Errorf("-shard requires a durable store shared through -dir; -store mem cannot fail over")
	}
	if partitions < 1 {
		return fmt.Errorf("-partitions %d < 1", partitions)
	}
	if doRecover {
		fmt.Fprintln(os.Stderr, "wfexec: -recover is ignored with -shard (each partition recovers when its lease is won)")
	}

	ps := shard.NewPartitionedStore(partitions)
	// No registry-wide Recover here: roll-forward happens per partition,
	// on the partition's own store, before it is mounted.
	reg := persist.NewRegistry(ps, txn.NewManager(ps), nil)

	impls := registry.New()
	impls.BindFallback(registry.Builtin)
	cfg := engine.Config{MaxRetries: retries, MaxRemoteInflight: maxRemote}
	namingClient := orb.NewNamingClient(orb.Dial(naming, orb.ClientConfig{}))
	invoker, err := taskexec.NewPoolInvoker(namingClient.ResolveAll, taskexec.PoolConfig{
		Balance:      balance,
		ResolveCache: time.Second,
		Metrics:      obs.Default(),
		Tracer:       obs.DefaultTracer(),
	})
	if err != nil {
		return err
	}
	defer invoker.Close()
	cfg.RemoteInvoker = invoker.Invoke

	eng := engine.New(reg, impls, cfg)
	defer eng.Close()

	repoClient := repository.NewClient(orb.Dial(repoAddr, orb.ClientConfig{}))
	svc := execsvc.New(eng, execsvc.FromRepositoryClient(repoClient))

	server, err := orb.NewServer(addr)
	if err != nil {
		return err
	}
	defer server.Close()
	server.Register(execsvc.ObjectName, svc.Servant())
	if coordID == "" {
		coordID = server.Addr()
	}

	compile := func(name string, src []byte) (*core.Schema, error) {
		return sema.CompileSource(name, src)
	}
	inPartition := func(p int) func(string) bool {
		return func(id string) bool { return shard.PartitionOf(id, partitions) == p }
	}

	// closers tracks each mounted partition store's close function;
	// views tracks the fault-injection wrapper each partition mounts
	// through when -wedge-on-usr1 is set.
	var closersMu sync.Mutex
	closers := make(map[int]func())
	views := make(map[int]*failure.WedgeStore)

	mgr, err := shard.NewManager(shard.ManagerConfig{
		ID:         coordID,
		Addr:       server.Addr(),
		Partitions: partitions,
		TTL:        ttl,
		Renew:      renew,
		Leases:     namingClient,
		Metrics:    obs.Default(),
		Peers:      func() ([]string, error) { return namingClient.ResolveAll(shard.CoordTier) },
		OnAcquire: func(p int) error {
			pdir := filepath.Join(dir, shard.PartitionDir(p))
			st, closeStore, err := store.Open(storeKind, pdir, !noSync)
			if err != nil {
				return fmt.Errorf("partition %d: open store: %w", p, err)
			}
			wireStoreMetrics(st)
			// Scoped roll-forward on the partition's own store, before the
			// engine can see it: in-doubt transactions the previous owner
			// left behind are decided first.
			preg := persist.NewRegistry(st, txn.NewManager(st), nil)
			if n, err := preg.Recover(); err != nil {
				closeStore()
				return fmt.Errorf("partition %d: recover transactions: %w", p, err)
			} else if n > 0 {
				fmt.Printf("partition %d: rolled %d in-doubt transactions forward\n", p, n)
			}
			mount := st
			closersMu.Lock()
			closers[p] = closeStore
			if wedgeOnUSR1 {
				v := failure.NewWedgeStore(st)
				views[p] = v
				mount = v
			}
			closersMu.Unlock()
			ps.Mount(p, mount)
			// An acquisition that finds persisted instances is a takeover
			// of state some owner left behind — at boot its own previous
			// incarnation's, mid-flight a dead peer's: a lease steal.
			ids, err := eng.RecoverMatchingCause(compile, inPartition(p), "lease-steal")
			if err != nil {
				// A corrupt instance must not bounce the partition between
				// owners forever: keep the lease, serve what recovered.
				fmt.Fprintf(os.Stderr, "partition %d: recover instances: %v\n", p, err)
			}
			if len(ids) > 0 {
				obs.Default().Counter(obs.MShardLeaseSteals).Inc()
			}
			fmt.Printf("partition %d: lease acquired, %d instances re-materialized\n", p, len(ids))
			return nil
		},
		OnLose: func(p int) {
			stopped := eng.StopMatching(inPartition(p))
			ps.Unmount(p)
			closersMu.Lock()
			closeStore := closers[p]
			delete(closers, p)
			delete(views, p)
			closersMu.Unlock()
			if closeStore != nil {
				closeStore()
			}
			fmt.Printf("partition %d: lease lost, %d instances stopped\n", p, len(stopped))
		},
	})
	if err != nil {
		return err
	}
	// Write fence below the lease: every partition write re-checks the
	// manager's fence window at apply time, so a coordinator partitioned
	// away from the naming service stops mutating its partitions the
	// instant its window lapses — not a tick later. (The per-partition
	// store.Open directory lock is the third line of defense.)
	ps.SetFence(mgr.Holds)
	// Degradation on durability faults: the first wedged/corrupt write
	// into a partition quarantines it — the fence closes immediately, the
	// manager's next round stops its instances, releases its lease and
	// declares avoidance, and a healthy peer re-materializes the
	// partition from the shared state root.
	ps.SetHealthSink(func(p int, err error) {
		fmt.Fprintf(os.Stderr, "partition %d: store fault, quarantining: %v\n", p, err)
		mgr.Quarantine(p, err)
	})
	svc.SetShardHealth(mgr.Health)

	// Instance-scoped requests are served only for held partitions; for
	// the rest the guard refuses with a redirect to the current lease
	// holder so routing clients chase the ownership, not this daemon.
	svc.SetOwnership(func(instance string) (bool, string) {
		p := shard.PartitionOf(instance, partitions)
		if mgr.Holds(p) {
			return true, ""
		}
		_, ownerAddr, held, err := namingClient.LeaseHolder(shard.LeaseName(p))
		if err != nil || !held {
			return false, ""
		}
		return false, ownerAddr
	})

	// Tier membership: rendezvous preference splits the partitions over
	// the live CoordTier member set, so membership must outlive a missed
	// beat no longer than a lease does.
	stopHB, err := namingClient.StartHeartbeat(shard.CoordTier, server.Addr(), ttl, renewInterval(ttl, renew))
	if err != nil {
		return fmt.Errorf("join coordinator tier: %w", err)
	}
	defer stopHB()

	mgr.Start()
	defer mgr.Close()

	if wedgeOnUSR1 {
		// Storage-fault injection for the disk-fault gauntlet: SIGUSR1
		// wedges every partition view this coordinator has mounted, so
		// the next flush into each fails with ErrWedged exactly as if
		// the WAL's disk had died. The health sink above then
		// quarantines the partitions and the tier degrades them to a
		// healthy peer.
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				closersMu.Lock()
				n := 0
				for _, v := range views {
					v.Wedge(nil)
					n++
				}
				closersMu.Unlock()
				fmt.Fprintf(os.Stderr, "wfexec: SIGUSR1 — wedged %d mounted partition stores\n", n)
			}
		}()
	}

	fmt.Printf("sharded workflow coordinator %s on %s (%d partitions, lease ttl %v, state root %s)\n",
		coordID, server.Addr(), partitions, ttl, dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down: releasing partitions")
	return nil
}

// renewInterval mirrors the manager's default so the membership
// heartbeat and the lease renewals beat at the same rate.
func renewInterval(ttl, renew time.Duration) time.Duration {
	if renew <= 0 || renew >= ttl {
		return ttl / 3
	}
	return renew
}
