package experiments_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/taskexec"
)

func runLoad(t *testing.T, cfg experiments.LoadConfig, workers, total int, midpoint func(*experiments.LoadEnv)) (experiments.LoadReport, []taskexec.EndpointStats) {
	t.Helper()
	le, err := experiments.NewLoadEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()
	var mid func()
	if midpoint != nil {
		mid = func() { midpoint(le) }
	}
	rep, err := le.Run(workers, total, mid)
	if err != nil {
		t.Fatal(err)
	}
	return rep, le.Stats()
}

func TestLoadGenCompletesAndBalances(t *testing.T) {
	rep, stats := runLoad(t, experiments.LoadConfig{
		Executors: 2, ChainLen: 3, TaskDelay: time.Millisecond,
	}, 4, 24, nil)
	if rep.Instances != 24 {
		t.Fatalf("instances = %d, want 24", rep.Instances)
	}
	if rep.Activations != 24*3 {
		t.Fatalf("activations = %d, want %d", rep.Activations, 24*3)
	}
	if rep.ActP50 <= 0 || rep.ActP99 < rep.ActP50 {
		t.Fatalf("implausible percentiles: %+v", rep)
	}
	// Round-robin over two members: both must have served real load.
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, st := range stats {
		if st.Dispatched < 10 {
			t.Fatalf("member %s served only %d dispatches: %+v", st.Addr, st.Dispatched, stats)
		}
	}
}

func TestLoadGenThroughputScalesWithExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based scaling assertion")
	}
	// The executor pool is the bottleneck (each node works on one
	// activation at a time, each activation sleeps): quadrupling
	// the pool must raise throughput substantially. The 2x floor (vs the
	// ideal 4x) keeps the assertion robust on loaded CI machines.
	cfg := experiments.LoadConfig{ChainLen: 4, TaskDelay: 2 * time.Millisecond}
	cfg.Executors = 1
	one, _ := runLoad(t, cfg, 8, 48, nil)
	cfg.Executors = 4
	four, _ := runLoad(t, cfg, 8, 48, nil)
	if four.InstancesPerSec < 2*one.InstancesPerSec {
		t.Fatalf("scaling too weak: 1 executor %.1f inst/s, 4 executors %.1f inst/s",
			one.InstancesPerSec, four.InstancesPerSec)
	}
}

func TestLoadGenKillOneMidRunFailsOver(t *testing.T) {
	// Two members; one is hard-stopped halfway through the run. Every
	// instance must still complete — in-flight dispatches on the dead
	// member fail over to the survivor inside the pool, before the
	// engine's own retry would even be consulted.
	rep, stats := runLoad(t, experiments.LoadConfig{
		Executors: 2, ChainLen: 3, TaskDelay: time.Millisecond,
	}, 4, 32, func(le *experiments.LoadEnv) { le.KillExecutor(0) })
	if rep.Instances != 32 {
		t.Fatalf("instances = %d, want all 32 despite the kill", rep.Instances)
	}
	// The survivor must have absorbed the post-kill load.
	var failures int64
	for _, st := range stats {
		failures += st.Failures
	}
	if failures == 0 {
		t.Log("note: kill landed after the last dispatch to the dead member; failover untested this run")
	}
}
