package execsvc_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/scripts"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

const testParts = 8

// shardCoord is one coordinator of a sharded tier: its own engine over
// a PartitionedStore view of the shared per-partition stores, its own
// orb server, ownership gated by the shared naming table's leases.
type shardCoord struct {
	id     string
	eng    *engine.Engine
	svc    *execsvc.Service
	server *orb.Server
	ps     *shard.PartitionedStore
}

func (c *shardCoord) addr() string { return c.server.Addr() }

// shardWorld is a two-coordinator sharded deployment over one naming
// service and one shared set of partition stores.
type shardWorld struct {
	naming     *orb.Naming
	namingSrv  *orb.Server
	partStores [testParts]*store.MemStore
	coords     []*shardCoord
	clockNow   *fakeNamingClock
}

// fakeNamingClock drives lease expiry without sleeping.
type fakeNamingClock struct{ t time.Time }

func (c *fakeNamingClock) now() time.Time { return c.t }

func newShardWorld(t *testing.T) *shardWorld {
	t.Helper()
	w := &shardWorld{clockNow: &fakeNamingClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}}
	w.naming = orb.NewNaming()
	w.naming.SetClock(w.clockNow.now)

	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	w.namingSrv = srv
	srv.Register(orb.NamingObject, w.naming.Servant())

	// One shared repository (schemas are global, not partitioned).
	repoStore := store.NewMemStore()
	repo := repository.New(persist.NewRegistry(repoStore, txn.NewManager(repoStore), nil))
	srv.Register(repository.ObjectName, repo.Servant())
	if _, err := repo.Put("process-order", scripts.ProcessOrder); err != nil {
		t.Fatal(err)
	}

	for p := 0; p < testParts; p++ {
		w.partStores[p] = store.NewMemStore()
	}
	for i := 0; i < 2; i++ {
		w.coords = append(w.coords, w.newCoord(t, fmt.Sprintf("coord-%d", i)))
	}
	return w
}

func (w *shardWorld) newCoord(t *testing.T, id string) *shardCoord {
	t.Helper()
	ps := shard.NewPartitionedStore(testParts)
	preg := persist.NewRegistry(ps, txn.NewManager(ps), nil)
	impls := registry.New()
	bindOrderImpls(impls)
	eng := engine.New(preg, impls, engine.Config{})
	t.Cleanup(eng.Close)

	repoC := repository.NewClient(orb.Dial(w.namingSrv.Addr(), orb.ClientConfig{}))
	svc := execsvc.New(eng, execsvc.FromRepositoryClient(repoC))

	server, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	server.Register(execsvc.ObjectName, svc.Servant())

	// Ownership delegates to the live lease table: the coordinator owns
	// an instance iff it holds the partition's lease right now.
	svc.SetOwnership(func(instance string) (bool, string) {
		p := shard.PartitionOf(instance, testParts)
		holder, addr, held := w.naming.LeaseHolder(shard.LeaseName(p))
		if held && holder == id {
			return true, ""
		}
		return false, addr
	})
	return &shardCoord{id: id, eng: eng, svc: svc, server: server, ps: ps}
}

// grant gives coordinator c the lease for partition p and mounts the
// shared partition store.
func (w *shardWorld) grant(t *testing.T, c *shardCoord, p int) {
	t.Helper()
	granted, holder, _ := w.naming.AcquireLease(shard.LeaseName(p), c.id, c.addr(), time.Minute)
	if !granted {
		t.Fatalf("lease %d refused for %s (holder %s)", p, c.id, holder)
	}
	c.ps.Mount(p, w.partStores[p])
}

// preferredSplit assigns every partition to its rendezvous-preferred
// coordinator and grants the leases.
func (w *shardWorld) preferredSplit(t *testing.T) map[int]*shardCoord {
	t.Helper()
	addrs := []string{w.coords[0].addr(), w.coords[1].addr()}
	owners := make(map[int]*shardCoord)
	for p := 0; p < testParts; p++ {
		c := w.coords[0]
		if shard.Preferred(addrs, p) == addrs[1] {
			c = w.coords[1]
		}
		w.grant(t, c, p)
		owners[p] = c
	}
	return owners
}

// persistedInstances returns the distinct instance IDs with state in
// st, in lexical order.
func persistedInstances(st store.Store) ([]string, error) {
	keys, err := st.List("inst/")
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, k := range keys {
		id, _, _ := strings.Cut(strings.TrimPrefix(string(k), "inst/"), "/")
		if id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

func newTestShardedClient(t *testing.T, w *shardWorld) *execsvc.ShardedClient {
	t.Helper()
	nc := orb.NewNamingClient(orb.Dial(w.namingSrv.Addr(), orb.ClientConfig{}))
	sc := execsvc.NewShardedClient(nc, execsvc.ShardedConfig{
		Partitions:   testParts,
		RouteTimeout: 10 * time.Second,
		RetryDelay:   10 * time.Millisecond,
	})
	t.Cleanup(sc.Close)
	return sc
}

func TestShardedClientRoutesByPartitionLease(t *testing.T) {
	w := newShardWorld(t)
	owners := w.preferredSplit(t)
	sc := newTestShardedClient(t, w)

	insts := make([]string, 10)
	for i := range insts {
		insts[i] = fmt.Sprintf("o-%d", i)
		if err := sc.Instantiate(insts[i], "process-order", ""); err != nil {
			t.Fatal(err)
		}
		if err := sc.Start(insts[i], "main", registry.Objects{"order": {Class: "Order", Data: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range insts {
		status, res, err := sc.WaitSettled(id, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if status != engine.StatusCompleted || res.Output != "orderCompleted" {
			t.Fatalf("%s: status=%v result=%+v", id, status, res)
		}
	}
	// Every instance must live on exactly the coordinator that holds its
	// partition's lease — the hash, the lease table and the guard agree.
	for _, id := range insts {
		want := owners[shard.PartitionOf(id, testParts)]
		if _, err := want.eng.Instance(id); err != nil {
			t.Fatalf("%s not on its lease holder %s: %v", id, want.id, err)
		}
		for _, c := range w.coords {
			if c != want {
				if _, err := c.eng.Instance(id); err == nil {
					t.Fatalf("%s also live on non-owner %s", id, c.id)
				}
			}
		}
	}
	// The merged view sees everything once.
	all, err := sc.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(insts) {
		t.Fatalf("merged Instances = %v", all)
	}
}

func TestShardedClientFollowsFailover(t *testing.T) {
	w := newShardWorld(t)
	owners := w.preferredSplit(t)
	sc := newTestShardedClient(t, w)

	insts := make([]string, 10)
	for i := range insts {
		insts[i] = fmt.Sprintf("o-%d", i)
		if err := sc.Instantiate(insts[i], "process-order", ""); err != nil {
			t.Fatal(err)
		}
		if err := sc.Start(insts[i], "main", registry.Objects{"order": {Class: "Order", Data: "x"}}); err != nil {
			t.Fatal(err)
		}
		if st, _, err := sc.WaitSettled(insts[i], 10*time.Second); err != nil || st != engine.StatusCompleted {
			t.Fatalf("%s: %v %v", insts[i], st, err)
		}
	}

	// Coordinator 0 dies: server gone, engine gone, leases lapse.
	dead, survivor := w.coords[0], w.coords[1]
	dead.server.Close()
	dead.eng.Close()
	w.clockNow.t = w.clockNow.t.Add(2 * time.Minute)

	// The survivor renews its own leases (the clock jump lapsed them
	// too) and takes over the dead coordinator's partitions: steal the
	// lease, mount the shared partition store, re-materialize.
	for p, c := range owners {
		if c != dead {
			w.grant(t, survivor, p)
			continue
		}
		w.grant(t, survivor, p)
		ids, err := persistedInstances(w.partStores[p])
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := survivor.svc.Recover(id); err != nil {
				t.Fatalf("takeover recover %s: %v", id, err)
			}
		}
	}

	// Every instance — including those that lived on the dead
	// coordinator — is reachable through the routing client, with its
	// state intact.
	for _, id := range insts {
		status, tasks, err := sc.Status(id)
		if err != nil {
			t.Fatalf("%s after failover: %v", id, err)
		}
		if status != engine.StatusCompleted || len(tasks) == 0 {
			t.Fatalf("%s after failover: status=%v tasks=%d", id, status, len(tasks))
		}
	}
}

func TestShardedClientEvictsDeadConnections(t *testing.T) {
	w := newShardWorld(t)
	w.preferredSplit(t)

	// Count dials per address: with eviction on transport failure, every
	// retry against a dead coordinator re-dials instead of reusing (and
	// leaking) the first broken connection forever.
	dials := make(map[string]int)
	nc := orb.NewNamingClient(orb.Dial(w.namingSrv.Addr(), orb.ClientConfig{}))
	sc := execsvc.NewShardedClient(nc, execsvc.ShardedConfig{
		Partitions:   testParts,
		RouteTimeout: 300 * time.Millisecond,
		RetryDelay:   20 * time.Millisecond,
		Dial: func(addr string) *execsvc.Client {
			dials[addr]++
			return execsvc.NewClient(orb.Dial(addr, orb.ClientConfig{Retries: -1}))
		},
	})
	t.Cleanup(sc.Close)

	const inst = "o-evict"
	p := shard.PartitionOf(inst, testParts)
	holder, deadAddr, held := w.naming.LeaseHolder(shard.LeaseName(p))
	if !held {
		t.Fatalf("partition %d has no holder", p)
	}
	for _, c := range w.coords {
		if c.id == holder {
			c.server.Close()
		}
	}

	if _, _, err := sc.Status(inst); err == nil {
		t.Fatal("status against a dead holder succeeded")
	}
	if n := dials[deadAddr]; n < 2 {
		t.Fatalf("dead coordinator dialed %d time(s); eviction should force a re-dial per retry", n)
	}
	// The broken client is not left cached: the next routing attempt
	// dials fresh rather than reusing it.
	before := dials[deadAddr]
	_, _, _ = sc.Status(inst)
	if dials[deadAddr] == before {
		t.Fatal("evicted address was served from the cache")
	}
}
