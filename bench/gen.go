package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// This file owns the benchmark's inputs. Scripts are emitted as .wf
// source text from a small DAG description, so a change to
// internal/workload or internal/experiments cannot change what the
// benchmark runs; the program under test sees only the text, the root
// objects and the bindings.

// node is one plain task of a generated script. in names its object
// sources ("" is the root compound's seed): one for a stage, two
// (left, right) for a pair. notify lists tasks whose completion gates
// the node without carrying data.
type node struct {
	name   string
	code   string
	loc    string
	in     []string
	notify []string
}

// shape is one generated script.
type shape struct {
	name  string
	nodes []node
	last  string
}

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

func sourceExpr(task string) string {
	if task == "" {
		return "seed of task app if input main"
	}
	return fmt.Sprintf("out of task %s if output done", task)
}

// source renders the shape in the concrete syntax of the language.
func (s shape) source() string {
	var b strings.Builder
	b.WriteString(prelude)
	b.WriteString("\ncompoundtask app of taskclass App\n{")
	for _, n := range s.nodes {
		class, fields := "Stage", []string{"in"}
		if len(n.in) == 2 {
			class, fields = "Pair", []string{"left", "right"}
		}
		impl := fmt.Sprintf("%q is %q", "code", n.code)
		if n.loc != "" {
			impl += fmt.Sprintf("; %q is %q", "location", n.loc)
		}
		fmt.Fprintf(&b, "\n    task %s of taskclass %s\n    {\n        implementation { %s };\n        inputs\n        {\n            input main\n            {", n.name, class, impl)
		var deps []string
		for i, src := range n.in {
			deps = append(deps, fmt.Sprintf("\n                inputobject %s from { %s }", fields[i], sourceExpr(src)))
		}
		for _, t := range n.notify {
			deps = append(deps, fmt.Sprintf("\n                notification from { task %s if output done }", t))
		}
		b.WriteString(strings.Join(deps, ";"))
		b.WriteString("\n            }\n        }\n    };")
	}
	fmt.Fprintf(&b, "\n    outputs\n    {\n        outcome done\n        {\n            outputobject out from { %s }\n        }\n    }\n};\n", sourceExpr(s.last))
	return b.String()
}

// expect is the reference oracle: it evaluates the DAG under the
// bindings' semantics (a stage forwards its input, a pair forwards its
// left input) and returns the output payload, the number of task
// starts (every plain task plus the root compound) and the number of
// located tasks, for an instance started with the given seed payload.
func (s shape) expect(seed string) (out string, starts, remote int) {
	val := map[string]string{"": seed}
	for _, n := range s.nodes {
		val[n.name] = val[n.in[0]]
		if n.loc != "" {
			remote++
		}
	}
	return val[s.last], len(s.nodes) + 1, remote
}

// chain is a linear pipeline of n stages; loc pins every stage to an
// executor location ("" runs them in-process).
func chain(n int, loc, code string) shape {
	s := shape{name: fmt.Sprintf("chain%d", n)}
	prev := ""
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		s.nodes = append(s.nodes, node{name: name, code: code, loc: loc, in: []string{prev}})
		prev = name
	}
	s.last = prev
	return s
}

// diamond is one producer, width parallel stages and a join tree of
// pairs.
func diamond(width int) shape {
	s := shape{name: fmt.Sprintf("diamond%d", width)}
	s.nodes = append(s.nodes, node{name: "head", code: "stage", in: []string{""}})
	level := make([]string, width)
	for i := range level {
		level[i] = fmt.Sprintf("b%d", i)
		s.nodes = append(s.nodes, node{name: level[i], code: "stage", in: []string{"head"}})
	}
	for j := 0; len(level) > 1; {
		var next []string
		for i := 0; i+1 < len(level); i += 2 {
			name := fmt.Sprintf("j%d", j)
			j++
			s.nodes = append(s.nodes, node{name: name, code: "pair", in: []string{level[i], level[i+1]}})
			next = append(next, name)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	s.last = level[0]
	return s
}

// fan is n parallel stages fed by the root, all gating one local sink
// through notifications: the widest join (local) or the widest burst
// of simultaneous dispatches (located).
func fan(n int, loc, code string) shape {
	kind := "fanin"
	if loc != "" {
		kind = "fanout"
	}
	s := shape{name: fmt.Sprintf("%s%d", kind, n)}
	sink := node{name: "sink", code: "stage", in: []string{""}}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("t%d", i)
		s.nodes = append(s.nodes, node{name: name, code: code, loc: loc, in: []string{""}})
		sink.notify = append(sink.notify, name)
	}
	s.nodes = append(s.nodes, sink)
	s.last = "sink"
	return s
}

// spec is one instance of the deck: which shape to run and how many
// payload bytes flow through every stage of it.
type spec struct {
	shape   int
	payload int
}

// deckSize instances make one pass. Every pass holds the same shapes,
// each with the same payload sizes, whatever the seed, so per-instance
// counts and bytes repeat exactly; the seed decides the order they run
// in and what the payloads contain.
const deckSize = 20

// payloadSizes is the 70/25/5 split of {64 B, 1 KiB, 8 KiB} over one
// deck. The payload flows through every stage, so it sets gob, WAL and
// wire bytes.
var payloadSizes = [deckSize]int{
	64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64,
	1024, 1024, 1024, 1024, 1024,
	8192,
}

// makeDeck returns one seeded pass: counts[i] instances of shape i.
// Sizes are dealt to the shapes with a fixed stride, so every shape
// gets its share of small and large payloads.
func makeDeck(seed int64, counts []int) []spec {
	var d []spec
	for shape, c := range counts {
		for i := 0; i < c; i++ {
			d = append(d, spec{shape: shape, payload: payloadSizes[len(d)*7%deckSize]})
		}
	}
	if len(d) != deckSize {
		panic(fmt.Sprintf("deck of %d instances, want %d", len(d), deckSize))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// makeFiller returns seeded printable bytes the payloads are cut from.
func makeFiller(seed int64) string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	b := make([]byte, payloadSizes[deckSize-1])
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// payload is size bytes ending in the instance's own tag, so an output
// that reached the wrong instance fails verification.
func payload(filler string, size int, tag uint64) string {
	return filler[:size-16] + fmt.Sprintf("%016x", tag)
}
