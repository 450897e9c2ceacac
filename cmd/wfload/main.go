// Command wfload is a closed-loop load generator for real daemons: N
// concurrent workers each run complete workflow instances (a chain of
// stages) back to back, and the tool reports instances/sec. It has two
// modes, both resolved through a naming service:
//
//   - Executor pool: resolves the pool registered under -location (by
//     cmd/wftask members) and drives it from an in-process engine over
//     TCP, reporting remote-activation latency percentiles and the
//     per-endpoint dispatch distribution. The chain stages use a builtin
//     implementation code, so plain wftask executors can serve them.
//     Flags -balance (roundrobin|leastinflight) and -gate (max
//     concurrent remote dispatches per instance) expose the pool
//     balancing strategy and the engine's backpressure gate.
//
//     wfload -naming 127.0.0.1:7000 -location workers -code sleep:2ms:done
//
//   - -sharded drives an external wfexec -shard coordinator tier: the
//     workload schema is deployed to the repository resolved through the
//     naming service and every instance is routed to its partition's
//     current lease holder. This is the driver of the
//     scripts/e2e_shardkill.sh and scripts/e2e_diskfault.sh gauntlets;
//     the tool exits non-zero unless every instance completes, however
//     many coordinators die mid-run.
//
//     wfload -sharded -naming 127.0.0.1:7000 -workers 8 -total 200
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/script/sema"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	workers := flag.Int("workers", 8, "concurrent instances (closed loop)")
	total := flag.Int("total", 200, "total instances to run")
	chain := flag.Int("chain", 4, "stages per instance")
	balance := flag.String("balance", taskexec.BalanceRoundRobin, "pool balancing: roundrobin or leastinflight")
	gate := flag.Int("gate", 0, "max concurrent remote dispatches per instance (0 = unbounded)")
	naming := flag.String("naming", "", "naming service address: resolves the executor pool, or the lease arbiter of the sharded tier with -sharded")
	location := flag.String("location", "workers", "location name of the executor pool")
	code := flag.String("code", "sleep:2ms:done", "implementation code of chain stages")
	sharded := flag.Bool("sharded", false, "drive an external sharded coordinator tier through -naming (instances route to partition lease holders)")
	partitions := flag.Int("partitions", shard.DefaultPartitions, "partition count of the sharded tier (must match the coordinators)")
	flag.Parse()

	var err error
	switch {
	case *naming == "":
		err = errors.New("-naming is required (the naming service of the executor pool or the sharded tier)")
	case *sharded:
		err = runSharded(*naming, *code, *partitions, *workers, *total, *chain)
	default:
		err = runPool(*naming, *location, *code, *workers, *total, *chain, *balance, *gate)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfload:", err)
		os.Exit(1)
	}
}

// runSharded drives an external wfexec -shard coordinator tier: the
// chain schema is deployed to the repository resolved through the
// naming service, then every instance is routed to its partition's
// lease holder. Coordinators may die mid-run (the e2e gauntlet SIGKILLs
// one); completion of every single instance is the success criterion.
func runSharded(naming, code string, partitions, workers, total, chain int) error {
	namingConn := orb.Dial(naming, orb.ClientConfig{})
	defer namingConn.Close()
	nc := orb.NewNamingClient(namingConn)
	repoAddr, err := nc.Resolve(repository.ObjectName)
	if err != nil {
		return fmt.Errorf("resolve repository through naming: %w", err)
	}
	repoConn := orb.Dial(repoAddr, orb.ClientConfig{})
	defer repoConn.Close()
	repoC := repository.NewClient(repoConn)
	const schemaName = "wfload-shard"
	if _, err := repoC.Put(schemaName, workload.ChainCode(chain, code, "")); err != nil {
		return fmt.Errorf("deploy %s: %w", schemaName, err)
	}

	sc := execsvc.NewShardedClient(nc, execsvc.ShardedConfig{Partitions: partitions})
	defer sc.Close()
	fmt.Printf("external sharded tier via %s: %d partitions, chain(%d) of %q, %d workers, %d instances\n",
		naming, partitions, chain, code, workers, total)

	run := os.Getpid()
	var seq atomic.Int64
	completed, elapsed, err := closedLoop(workers, total, func() error {
		name := fmt.Sprintf("ld-%d-%d", run, seq.Add(1))
		return runOneSharded(sc, name, schemaName, 2*time.Minute)
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d/%d instances completed in %v (%.1f inst/s)\n",
		completed, total, elapsed.Round(time.Millisecond), float64(completed)/elapsed.Seconds())
	return nil
}

// runPool drives the executor pool registered under location from an
// in-process ephemeral engine whose located stages dispatch through a
// pool invoker.
func runPool(naming, location, code string, workers, total, chain int, balance string, gate int) error {
	namingConn := orb.Dial(naming, orb.ClientConfig{})
	defer namingConn.Close()
	nc := orb.NewNamingClient(namingConn)
	members, err := nc.ResolveAll(location)
	if err != nil {
		return fmt.Errorf("resolve pool %q: %w", location, err)
	}
	fmt.Printf("external pool %q via %s: %d members, chain(%d) of %q, balance=%s\n",
		location, naming, len(members), chain, code, balance)

	inv, err := taskexec.NewPoolInvoker(nc.ResolveAll, taskexec.PoolConfig{
		Balance:      balance,
		ResolveCache: time.Second,
	})
	if err != nil {
		return err
	}
	defer inv.Close()

	var lat latencyRecorder
	st := store.NewMemStore()
	eng := engine.New(persist.NewRegistry(st, txn.NewManager(st), nil), registry.New(), engine.Config{
		Ephemeral:         true,
		RemoteInvoker:     lat.wrap(inv.Invoke),
		MaxRemoteInflight: gate,
	})
	defer eng.Close()
	schema := sema.MustCompileSource("wfload", []byte(workload.ChainCode(chain, code, location)))

	var seq atomic.Int64
	completed, elapsed, err := closedLoop(workers, total, func() error {
		inst, err := eng.Instantiate(fmt.Sprintf("wfload-%d", seq.Add(1)), schema, "")
		if err != nil {
			return err
		}
		defer inst.Stop()
		if err := inst.Start("main", workload.Seed()); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := inst.Wait(ctx)
		if err != nil {
			return fmt.Errorf("instance %s: %w", inst.ID(), err)
		}
		if res.Output != "done" {
			return fmt.Errorf("instance %s outcome %q", inst.ID(), res.Output)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d instances in %v (%.1f inst/s); %v\n",
		completed, elapsed.Round(time.Millisecond), float64(completed)/elapsed.Seconds(), &lat)
	fmt.Printf("%-22s %12s %9s %9s  %s\n", "endpoint", "dispatched", "failures", "inflight", "state")
	for _, st := range inv.Stats() {
		state := "healthy"
		if st.Blacklisted {
			state = "blacklisted"
		} else if !st.Connected {
			state = "disconnected"
		}
		fmt.Printf("%-22s %12d %9d %9d  %s\n", st.Addr, st.Dispatched, st.Failures, st.Inflight, state)
	}
	return nil
}
