package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/script/parser"
	"repro/internal/script/sema"
	"repro/internal/scripts"
	"repro/internal/workload"
)

// The benchmarks below regenerate every figure of the paper plus the
// system-level experiments of Sections 2-3; EXPERIMENTS.md records the
// measured numbers next to the paper's qualitative claims. Scenario code
// lives in internal/experiments so cmd/wfbench reports the same numbers.

// BenchmarkFig1Diamond measures end-to-end execution of the Fig. 1
// dependency diamond, generalised to increasing parallel widths.
func BenchmarkFig1Diamond(b *testing.B) {
	for _, width := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			f := experiments.NewFig1(width)
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2InputSets measures a task with two competing input sets
// and alternative sources; every iteration re-checks that selection is
// deterministic (first declared set, first available alternative).
func BenchmarkFig2InputSets(b *testing.B) {
	f := experiments.NewFig2()
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Transitions measures one run through the full Fig. 3
// state machine: wait, execute, one retried system failure, marks on
// every iteration, the given number of repeat transitions, final outcome.
func BenchmarkFig3Transitions(b *testing.B) {
	for _, repeats := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("repeats=%d", repeats), func(b *testing.B) {
			f := experiments.NewFig3(repeats)
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4FullStack measures one workflow executed entirely through
// the distributed deployment of Fig. 4: naming + repository + execution
// services over loopback TCP, remote instantiate/start/wait.
func BenchmarkFig4FullStack(b *testing.B) {
	f, err := experiments.NewFig4()
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Compound measures hierarchical composition: compounds
// nested to increasing depth (Fig. 5's structuring device).
func BenchmarkFig5Compound(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			f := experiments.NewFig5(depth)
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6ServiceImpact measures the Section 5.1 network-management
// application (alarm correlation -> impact analysis -> resolution).
func BenchmarkFig6ServiceImpact(b *testing.B) {
	f := experiments.NewFig6()
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ProcessOrder measures the Section 5.2 electronic order
// processing application, including the atomic dispatch task.
func BenchmarkFig7ProcessOrder(b *testing.B) {
	f := experiments.NewFig7()
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Fig9BusinessTrip measures the Section 5.3 application:
// hotelRejects=0 is the happy path (Fig. 8's mark release), larger values
// exercise the compensation + repeat loop of Fig. 9 that many times.
func BenchmarkFig8Fig9BusinessTrip(b *testing.B) {
	for _, rejects := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("hotelRejects=%d", rejects), func(b *testing.B) {
			f := experiments.NewFig89(rejects)
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX1CrashRecovery measures a full crash/recovery cycle: run to
// a mid-workflow point, lose the process, rebuild from the persistent
// store and finish the workflow.
func BenchmarkX1CrashRecovery(b *testing.B) {
	for _, width := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.X1CrashRecovery(width, experiments.X1Opts{})
				if err != nil {
					b.Fatal(err)
				}
				if res.ReExecuted {
					b.Fatal("completed task re-executed after recovery")
				}
			}
		})
	}
}

// BenchmarkX2Reconfigure measures applying the paper's dynamic
// reconfiguration example (add a dependent task, then remove it) to a
// running instance, including the atomic persistence of the change.
func BenchmarkX2Reconfigure(b *testing.B) {
	x, err := experiments.NewX2()
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX3Baselines compares scheduling one workload on the three
// engines of the related-work comparison: this system (event-driven,
// ephemeral mode), the ECA rule engine, and the Petri-net engine.
func BenchmarkX3Baselines(b *testing.B) {
	loads := []struct {
		name string
		src  string
	}{
		{"chain32", workload.Chain(32)},
		{"diamond16", workload.Diamond(16)},
		{"dag64", workload.RandomDAG(64, 2, 42)},
	}
	for _, load := range loads {
		w := experiments.NewX3(load.name, load.src)
		b.Run(load.name+"/engine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := w.RunEngine(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(load.name+"/eca", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := w.RunECA()
				if st.TasksStarted == 0 {
					b.Fatal("ECA scheduled nothing")
				}
			}
		})
		b.Run(load.name+"/petri", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := w.RunPetri()
				if st.TasksStarted == 0 {
					b.Fatal("petri scheduled nothing")
				}
			}
		})
		w.Close()
	}
}

// BenchmarkX4Parser measures front-end throughput: parse + check of
// generated scripts of growing size.
func BenchmarkX4Parser(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		src := []byte(workload.Chain(n))
		b.Run(fmt.Sprintf("parse/tasks=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := parser.Parse("bench", src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("compile/tasks=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := sema.CompileSource("bench", src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX5LossyNetwork measures one remote workflow over transports
// with increasing fault probability; the run only succeeds if the retry
// machinery heals every injected fault.
func BenchmarkX5LossyNetwork(b *testing.B) {
	for _, p := range []float64{0.0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("refuseProb=%.1f", p), func(b *testing.B) {
			x, err := experiments.NewX5(p, 42)
			if err != nil {
				b.Fatal(err)
			}
			defer x.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(x.Retries())/float64(b.N), "retries/op")
		})
	}
}

// schedulerModes pairs a display name with the engine's FullRescan flag
// for the scheduler ablation benchmarks.
var schedulerModes = []struct {
	name       string
	fullRescan bool
}{
	{"dirty-set", false},
	{"full-rescan", true},
}

// BenchmarkSchedulerChain compares the dependency-indexed dirty-set
// scheduler against the legacy full-rescan baseline on deep pipelines:
// a completion event enqueues only the completed task's consumers, so
// per-event work is O(consumers) instead of O(tasks) and the 1k-task
// chain stops being quadratic.
func BenchmarkSchedulerChain(b *testing.B) {
	for _, n := range []int{100, 1000} {
		src := workload.Chain(n)
		for _, mode := range schedulerModes {
			b.Run(fmt.Sprintf("tasks=%d/%s", n, mode.name), func(b *testing.B) {
				s := experiments.NewSched(fmt.Sprintf("chain%d", n), src, mode.fullRescan)
				defer s.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSchedulerFanIn compares the schedulers on the widest join:
// n parallel stages notifying a single sink, so every completion event
// hits the same consumer.
func BenchmarkSchedulerFanIn(b *testing.B) {
	for _, n := range []int{100, 1000} {
		src := workload.FanIn(n)
		for _, mode := range schedulerModes {
			b.Run(fmt.Sprintf("tasks=%d/%s", n, mode.name), func(b *testing.B) {
				s := experiments.NewSched(fmt.Sprintf("fanin%d", n), src, mode.fullRescan)
				defer s.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScriptStats reports the specification-size comparison of
// Section 6 as benchmark metrics: structural-script elements vs ECA rules
// vs Petri-net elements for the paper's own applications.
func BenchmarkScriptStats(b *testing.B) {
	for name, src := range scripts.All {
		b.Run(name, func(b *testing.B) {
			w := experiments.NewX3Spec(name, src)
			script, rules, net := w.SpecSizes()
			w.Close()
			for i := 0; i < b.N; i++ {
				_ = script
			}
			b.ReportMetric(float64(script), "script-elems")
			b.ReportMetric(float64(rules), "eca-rules")
			b.ReportMetric(float64(net), "petri-elems")
		})
	}
}
