// Package workload generates workflow scripts for tests and benchmarks:
// chains, diamonds, fan-outs, random DAGs and nested compounds, in the
// concrete syntax of the language. Generators return source text so the
// same workload exercises the parser, the checker, the engine and the
// baselines.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/script/sema"
)

// prelude declares the single object class and the task classes shared by
// all generated workloads: a one-in/one-out Stage, a Source fed by the
// root, a variadic join is modelled by chaining Pair joins.
const prelude = `
class Data;

taskclass Stage
{
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
};

taskclass Pair
{
    inputs { input main { left of class Data; right of class Data } };
    outputs { outcome done { out of class Data } }
};

taskclass App
{
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
};
`

// stage renders one Stage task consuming from a source expression.
func stage(b *strings.Builder, name, sourceExpr string) {
	fmt.Fprintf(b, `
    task %s of taskclass Stage
    {
        implementation { "code" is "stage" };
        inputs
        {
            input main
            {
                inputobject in from { %s }
            }
        }
    };`, name, sourceExpr)
}

// locStage renders one Stage task pinned to a location (dispatched to a
// remote executor pool by the engine).
func locStage(b *strings.Builder, name, sourceExpr, location string) {
	fmt.Fprintf(b, `
    task %s of taskclass Stage
    {
        implementation { "code" is "stage"; "location" is %q };
        inputs
        {
            input main
            {
                inputobject in from { %s }
            }
        }
    };`, name, location, sourceExpr)
}

// pair renders one Pair join task.
func pair(b *strings.Builder, name, leftExpr, rightExpr string) {
	fmt.Fprintf(b, `
    task %s of taskclass Pair
    {
        implementation { "code" is "pair" };
        inputs
        {
            input main
            {
                inputobject left from { %s };
                inputobject right from { %s }
            }
        }
    };`, name, leftExpr, rightExpr)
}

// wrap surrounds constituent declarations with the root compound that
// feeds the first task(s) and emits the result of lastTask.
func wrap(constituents, lastTask string) string {
	return prelude + fmt.Sprintf(`
compoundtask app of taskclass App
{%s
    outputs
    {
        outcome done
        {
            outputobject out from { out of task %s if output done }
        }
    }
};
`, constituents, lastTask)
}

// fromRoot is the source expression reading the root compound's seed.
const fromRoot = "seed of task app if input main"

// fromTask returns the source expression reading task t's output.
func fromTask(t string) string {
	return fmt.Sprintf("out of task %s if output done", t)
}

// Chain returns a linear pipeline of n stages: t1 -> t2 -> ... -> tn.
func Chain(n int) string {
	var b strings.Builder
	prev := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		if prev == "" {
			stage(&b, name, fromRoot)
		} else {
			stage(&b, name, fromTask(prev))
		}
		prev = name
	}
	return wrap(b.String(), prev)
}

// ChainCode is Chain with an explicit implementation code, run through
// the builtin pattern schemes (e.g. "sleep:2ms:done") so daemons can
// serve it. With an empty location every stage runs in-process on the
// coordinating engine, exercising a coordinator tier without executor
// pools; otherwise every stage is dispatched to the executor pool
// registered under location. Unlike the shared Stage taskclass, its
// stages carry the object "d" through both input and output, matching
// the builtins' echo semantics (inputs copy into same-named outputs).
func ChainCode(n int, code, location string) string {
	impl := fmt.Sprintf(`"code" is %q`, code)
	if location != "" {
		impl += fmt.Sprintf(`; "location" is %q`, location)
	}
	var b strings.Builder
	b.WriteString(`
class Data;

taskclass EchoStage
{
    inputs { input main { d of class Data } };
    outputs { outcome done { d of class Data } }
};

taskclass App
{
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
};

compoundtask app of taskclass App
{`)
	prev := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		src := fromRoot
		if prev != "" {
			src = fmt.Sprintf("d of task %s if output done", prev)
		}
		fmt.Fprintf(&b, `
    task %s of taskclass EchoStage
    {
        implementation { %s };
        inputs { input main { inputobject d from { %s } } }
    };`, name, impl, src)
		prev = name
	}
	fmt.Fprintf(&b, `
    outputs { outcome done { outputobject out from { d of task %s if output done } } }
};
`, prev)
	return b.String()
}

// Diamond returns a generalised Fig. 1 diamond: one producer, width
// parallel stages, and a join tree combining all branches.
func Diamond(width int) string {
	var b strings.Builder
	stage(&b, "head", fromRoot)
	branches := make([]string, width)
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("b%d", i)
		stage(&b, name, fromTask("head"))
		branches[i] = name
	}
	// Join tree of Pair tasks.
	joinID := 0
	for len(branches) > 1 {
		var next []string
		for i := 0; i+1 < len(branches); i += 2 {
			name := fmt.Sprintf("j%d", joinID)
			joinID++
			pair(&b, name, fromTask(branches[i]), fromTask(branches[i+1]))
			next = append(next, name)
		}
		if len(branches)%2 == 1 {
			next = append(next, branches[len(branches)-1])
		}
		branches = next
	}
	return wrap(b.String(), branches[0])
}

// FanOut returns one producer feeding n independent stages, joined by a
// chain of Pair tasks (so the workflow has a single result).
func FanOut(n int) string {
	return Diamond(n)
}

// FanIn returns n parallel stages all fed by the root, gating a single
// sink: the sink reads the root's seed and is notified by every stage
// (an AND of n notification dependencies) — the widest possible join.
func FanIn(n int) string {
	return fanIn(n, func(b *strings.Builder, name, src string) {
		stage(b, name, src)
	})
}

// fanIn builds the fan-in shape with a pluggable renderer for the n
// parallel stages (the local and located variants share everything
// else: the root feed, the notification-gated sink, the wrapper).
func fanIn(n int, renderStage func(b *strings.Builder, name, sourceExpr string)) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		renderStage(&b, fmt.Sprintf("t%d", i), fromRoot)
	}
	fmt.Fprintf(&b, `
    task sink of taskclass Stage
    {
        implementation { "code" is "stage" };
        inputs
        {
            input main
            {
                inputobject in from { %s }`, fromRoot)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, ";\n                notification from { task t%d if output done }", i)
	}
	b.WriteString(`
            }
        }
    };`)
	return wrap(b.String(), "sink")
}

// LocatedChain returns a linear pipeline of n stages, every stage pinned
// to the given location: the workload of the executor-pool load
// generator (each instance costs n sequential remote dispatches).
func LocatedChain(n int, location string) string {
	var b strings.Builder
	prev := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		src := fromRoot
		if prev != "" {
			src = fromTask(prev)
		}
		locStage(&b, name, src, location)
		prev = name
	}
	return wrap(b.String(), prev)
}

// LocatedFanOut returns n parallel located stages all fed by the root,
// gating a local sink via notifications: the widest possible burst of
// simultaneous remote dispatches (exercises the engine's remote-dispatch
// backpressure gate).
func LocatedFanOut(n int, location string) string {
	return fanIn(n, func(b *strings.Builder, name, src string) {
		locStage(b, name, src, location)
	})
}

// timerPrelude declares the classes of the temporal workloads. The
// object flows through as "d" on both sides of every task, because
// first-class delay tasks echo their inputs into same-named output
// objects (the builtin echo semantics).
const timerPrelude = `
class Data;

taskclass TStage
{
    inputs { input main { d of class Data } };
    outputs { outcome done { d of class Data } }
};

taskclass TApp
{
    inputs { input main { d of class Data } };
    outputs { outcome done { d of class Data } }
};
`

// timerWrap surrounds constituents with the temporal root compound.
func timerWrap(constituents, lastTask string) string {
	return timerPrelude + fmt.Sprintf(`
compoundtask app of taskclass TApp
{%s
    outputs
    {
        outcome done
        {
            outputobject d from { d of task %s if output done }
        }
    }
};
`, constituents, lastTask)
}

const timerFromRoot = "d of task app if input main"

func timerFromTask(t string) string {
	return fmt.Sprintf("d of task %s if output done", t)
}

// TimerChain returns a linear pipeline of n first-class delay tasks
// (implementation property "delay"), each firing on the engine's
// durable timing wheel: the S4 temporal workload. No implementation
// code runs at all — every stage is pure time.
func TimerChain(n int, delay time.Duration) string {
	var b strings.Builder
	prev := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		src := timerFromRoot
		if prev != "" {
			src = timerFromTask(prev)
		}
		fmt.Fprintf(&b, `
    task %s of taskclass TStage
    {
        implementation { "delay" is %q };
        inputs
        {
            input main
            {
                inputobject d from { %s }
            }
        }
    };`, name, delay.String(), src)
		prev = name
	}
	return timerWrap(b.String(), prev)
}

// DeadlineFanOut returns n parallel stages all fed by the root, each
// bounded by a "deadline" implementation property and gating a sink via
// notifications: every activation arms (and, on completion, disarms) a
// wheel entry — the deadline-churn workload. code names the stage
// implementation (bind something faster than the deadline).
func DeadlineFanOut(n int, deadline time.Duration, code string) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, `
    task t%d of taskclass TStage
    {
        implementation { "code" is %q; "deadline" is %q };
        inputs
        {
            input main
            {
                inputobject d from { %s }
            }
        }
    };`, i, code, deadline.String(), timerFromRoot)
	}
	fmt.Fprintf(&b, `
    task sink of taskclass TStage
    {
        implementation { "code" is %q };
        inputs
        {
            input main
            {
                inputobject d from { %s }`, code, timerFromRoot)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, ";\n                notification from { task t%d if output done }", i)
	}
	b.WriteString(`
            }
        }
    };`)
	return timerWrap(b.String(), "sink")
}

// TimerSeed returns the root inputs of the temporal workloads (their
// object is named "d" end to end, matching the delay echo).
func TimerSeed() registry.Objects {
	return registry.Objects{"d": {Class: "Data", Data: "seed"}}
}

// RandomDAG returns a random DAG of n stages where each stage reads from
// a uniformly chosen earlier stage (or the root), with optional redundant
// alternative sources. Deterministic for a given seed.
func RandomDAG(n int, alternatives int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	names := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		var sources []string
		if len(names) == 0 {
			sources = append(sources, fromRoot)
		} else {
			primary := names[rng.Intn(len(names))]
			sources = append(sources, fromTask(primary))
			for a := 0; a < alternatives; a++ {
				alt := names[rng.Intn(len(names))]
				src := fromTask(alt)
				dup := false
				for _, have := range sources {
					if have == src {
						dup = true
						break
					}
				}
				if !dup {
					sources = append(sources, src)
				}
			}
		}
		stage(&b, name, strings.Join(sources, "; "))
		names = append(names, name)
	}
	return wrap(b.String(), names[len(names)-1])
}

// Nested returns compounds nested to the given depth, each level holding
// width sequential stages; exercises hierarchical composition (Fig. 5).
func Nested(depth, width int) string {
	var build func(level int) string
	build = func(level int) string {
		var b strings.Builder
		name := fmt.Sprintf("c%d", level)
		fmt.Fprintf(&b, `
    compoundtask %s of taskclass App
    {
        inputs
        {
            input main
            {
                inputobject seed from { %s }
            }
        };`, name, seedSource(level, width))
		prev := ""
		for i := 0; i < width; i++ {
			sname := fmt.Sprintf("s%d_%d", level, i)
			if prev == "" {
				stage2 := fmt.Sprintf("seed of task %s if input main", name)
				stage(&b, sname, stage2)
			} else {
				stage(&b, sname, fromTask(prev))
			}
			prev = sname
		}
		last := prev
		if level < depth {
			b.WriteString(build(level + 1))
			last = fmt.Sprintf("c%d", level+1)
		}
		fmt.Fprintf(&b, `
        outputs
        {
            outcome done
            {
                outputobject out from { out of task %s if output done }
            }
        }
    };`, last)
		return b.String()
	}
	return prelude + fmt.Sprintf(`
compoundtask app of taskclass App
{%s
    outputs
    {
        outcome done
        {
            outputobject out from { out of task c1 if output done }
        }
    }
};
`, buildTop(build))
}

func buildTop(build func(int) string) string {
	return build(1)
}

func seedSource(level, width int) string {
	if level == 1 {
		return "seed of task app if input main"
	}
	// Nested compounds are declared inside c<level-1> and consume its
	// LAST stage's output, keeping each level strictly sequential:
	// seeding from the enclosing compound's input instead would race the
	// inner chain against the level's stages, and whichever finished
	// first would decide whether the trailing stages ever start — a
	// timing dependence the scheduler-differential trajectory tests (and
	// the generator's own "sequential stages" contract) exclude.
	return fmt.Sprintf("out of task s%d_%d if output done", level-1, width-1)
}

// MustCompile compiles generated source, panicking on generator bugs.
func MustCompile(name, src string) *core.Schema {
	return sema.MustCompileSource(name, []byte(src))
}

// Bind installs pass-through implementations for generated workloads on
// an implementation registry: "stage" forwards its input, "pair" joins.
func Bind(impls *registry.Registry) {
	impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
	impls.Bind("pair", func(ctx registry.Context) (registry.Result, error) {
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["left"]}}, nil
	})
}

// Oracle returns the all-success outcome chooser for the baselines.
func Oracle() func(string) string {
	return func(string) string { return "done" }
}

// Seed returns the root input objects for a generated workload.
func Seed() registry.Objects {
	return registry.Objects{"seed": {Class: "Data", Data: "seed"}}
}
