package execsvc_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/txn"
)

// locatedScript pins its two stages to different executor nodes.
const locatedScript = `
class D;

taskclass Stage
{
    inputs { input main { in of class D } };
    outputs { outcome done { out of class D } }
};

taskclass App
{
    inputs { input main { in of class D } };
    outputs { outcome done { out of class D } }
};

compoundtask app of taskclass App
{
    task east of taskclass Stage
    {
        implementation { "code" is "tag"; "location" is "node-east" };
        inputs { input main { inputobject in from { in of task app if input main } } }
    };
    task west of taskclass Stage
    {
        implementation { "code" is "tag"; "location" is "node-west" };
        inputs { input main { inputobject in from { out of task east if output done } } }
    };
    outputs { outcome done { outputobject out from { out of task west if output done } } }
};
`

// TestLocatedTasksAcrossExecutors deploys the complete distributed
// picture: naming + repository + execution services plus two task
// executor nodes, with the script's "location" properties routing each
// stage to its node.
func TestLocatedTasksAcrossExecutors(t *testing.T) {
	naming := orb.NewNaming()

	// Two executor nodes, each tagging payloads with its identity.
	newNode := func(name string) *orb.Server {
		impls := registry.New()
		impls.Bind("tag", func(ctx registry.Context) (registry.Result, error) {
			in := ctx.Inputs()["in"].Data.(string)
			return registry.Result{Output: "done", Objects: registry.Objects{
				"out": {Class: "D", Data: in + "->" + name},
			}}, nil
		})
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srv.Register(taskexec.ObjectName, taskexec.NewExecutor(impls).Servant())
		naming.BindEntry(name, srv.Addr())
		return srv
	}
	newNode("node-east")
	newNode("node-west")

	// The execution service, wired to dispatch located tasks via naming.
	invoker, err := taskexec.NewPoolInvoker(naming.ResolveAll, taskexec.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invoker.Close)
	st := store.NewMemStore()
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	eng := engine.New(preg, registry.New(), engine.Config{RemoteInvoker: invoker.Invoke})
	t.Cleanup(eng.Close)
	repo := repository.New(preg)
	svc := execsvc.New(eng, repo)

	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Register(repository.ObjectName, repo.Servant())
	srv.Register(execsvc.ObjectName, svc.Servant())

	client := orb.Dial(srv.Addr(), orb.ClientConfig{})
	t.Cleanup(client.Close)
	repoC := repository.NewClient(client)
	execC := execsvc.NewClient(client)

	if _, err := repoC.Put("located", locatedScript); err != nil {
		t.Fatal(err)
	}
	if err := execC.Instantiate("loc-1", "located", ""); err != nil {
		t.Fatal(err)
	}
	if err := execC.Start("loc-1", "main", registry.Objects{"in": {Class: "D", Data: "seed"}}); err != nil {
		t.Fatal(err)
	}
	status, res, err := execC.WaitSettled("loc-1", 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status != engine.StatusCompleted {
		t.Fatalf("status = %v", status)
	}
	// The payload crossed both nodes in dependency order.
	if got := res.Objects["out"].Data.(string); got != "seed->node-east->node-west" {
		t.Fatalf("payload = %q, want it tagged by east then west", got)
	}
}
