package experiments_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/store"
	"repro/internal/workload"
)

// Every scenario that bench_test.go and cmd/wfbench drive must pass its
// own behavioural checks; this test runs each once so a broken scenario
// fails the suite, not just the benchmarks.

func TestFigureScenarios(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		f := experiments.NewFig1(4)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig2", func(t *testing.T) {
		f := experiments.NewFig2()
		defer f.Close()
		for i := 0; i < 5; i++ {
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("fig3", func(t *testing.T) {
		f := experiments.NewFig3(3)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig5", func(t *testing.T) {
		f := experiments.NewFig5(3)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig6", func(t *testing.T) {
		f := experiments.NewFig6()
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig7", func(t *testing.T) {
		f := experiments.NewFig7()
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig89", func(t *testing.T) {
		f := experiments.NewFig89(2)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFig4FullStackScenario(t *testing.T) {
	f, err := experiments.NewFig4()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestX1Scenario(t *testing.T) {
	res, err := experiments.X1CrashRecovery(4, experiments.X1Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReExecuted {
		t.Fatal("completed task re-executed after recovery")
	}
	if res.RecoveryTime <= 0 {
		t.Fatal("recovery time not measured")
	}
}

func TestX2Scenario(t *testing.T) {
	x, err := experiments.NewX2()
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 3; i++ {
		if err := x.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestX3Scenario(t *testing.T) {
	w := experiments.NewX3("chain8", workload.Chain(8))
	defer w.Close()
	if err := w.RunEngine(); err != nil {
		t.Fatal(err)
	}
	if st := w.RunECA(); st.TasksStarted != 8 {
		t.Fatalf("eca started %d", st.TasksStarted)
	}
	if st := w.RunPetri(); st.TasksStarted != 8 {
		t.Fatalf("petri started %d", st.TasksStarted)
	}
	script, rules, net := w.SpecSizes()
	// The net encodes both places and transitions, so it is always the
	// largest; rule count approaches the script size only when there are
	// no alternative sources to unroll.
	if script <= 0 || rules <= 0 || net <= rules {
		t.Fatalf("spec sizes out of expected order: script=%d rules=%d net=%d", script, rules, net)
	}
}

func TestX5Scenario(t *testing.T) {
	x, err := experiments.NewX5(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// The client reuses connections, so faults accumulate over several
	// runs (drops after a frame budget, refusals on re-dial).
	for i := 0; i < 5; i++ {
		if err := x.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if x.Faults() == 0 {
		t.Error("no faults injected across 5 runs at p=0.3; scenario is vacuous")
	}
}

// TestAblationConfigurations runs one diamond instance under each engine
// configuration an ablation baseline still uses: ephemeral and persistent
// run states over a memory store, and the full-rescan scheduler of the
// S1 rows.
func TestAblationConfigurations(t *testing.T) {
	schema := experiments.Compile("ablation", workload.Diamond(4))
	run := func(t *testing.T, st store.Store, cfg engine.Config) {
		t.Helper()
		env := experiments.NewEnv(st, cfg)
		defer env.Close()
		workload.Bind(env.Impls)
		res, _, err := env.Run(schema, "main", workload.Seed())
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != "done" {
			t.Fatalf("outcome %q, want done", res.Output)
		}
	}
	for _, eph := range []bool{true, false} {
		run(t, store.NewMemStore(), engine.Config{Ephemeral: eph})
	}
	for _, fullRescan := range []bool{false, true} {
		s := experiments.NewSched("ablation", workload.Diamond(4), fullRescan)
		if err := s.Run(); err != nil {
			t.Fatalf("fullRescan=%v: %v", fullRescan, err)
		}
		s.Close()
	}
}
