package core

// Plan is the evaluation plan of one task tree: every task's path in
// depth-first declaration order (the order of Walk), each path's
// position in that order, and the reverse-dependency index — for every
// task some dependency names as a source, the positions of the tasks
// that depend on it. It is a pure function of the tree, so Task.Plan
// builds it once and every instance of a schema shares it read-only.
// Structural change works on a Schema.Clone, whose tasks build their
// own plan once the change is applied.
type Plan struct {
	// Paths lists the tree's task paths in Walk order.
	Paths []string
	// Index maps a task path to its position in Paths.
	Index     map[string]int
	consumers map[string]*Consumers
}

// Consumers lists, as positions in Plan.Paths, the tasks whose
// dependencies reference one producer, split by the producer event that
// can make such a source available.
type Consumers struct {
	// OnStart holds consumers with input-conditioned sources on the
	// producer (input sharing): they gain availability only when the
	// producer consumes an input set.
	OnStart []int
	// OnOutput holds consumers with output-conditioned, unconditioned or
	// notification sources: they gain availability when the producer
	// releases a mark, repeats or terminates.
	OnOutput []int
}

// Consumers returns the consumers of the task at path, or nil if no
// dependency in the tree names it as a source.
func (p *Plan) Consumers(path string) *Consumers { return p.consumers[path] }

// Plan returns the evaluation plan of the tree rooted at t, building it
// on first use. It is safe for concurrent use. The tree must not change
// once its plan is built: reconfigure a Clone instead.
func (t *Task) Plan() *Plan {
	if p := t.plan.Load(); p != nil {
		return p
	}
	// Concurrent first callers may both build; the plans are equal and
	// the first stored wins.
	t.plan.CompareAndSwap(nil, buildPlan(t))
	return t.plan.Load()
}

func buildPlan(root *Task) *Plan {
	p := &Plan{Index: make(map[string]int), consumers: make(map[string]*Consumers)}
	root.Walk(func(t *Task) {
		p.Index[t.Path()] = len(p.Paths)
		p.Paths = append(p.Paths, t.Path())
	})
	type edge struct {
		producer string
		consumer int
		onStart  bool
	}
	seen := make(map[edge]bool)
	root.Walk(func(t *Task) {
		consumer := p.Index[t.Path()]
		for _, d := range dependencyEdges(t) {
			e := edge{producer: d.From.Path(), consumer: consumer, onStart: d.Cond == CondInput}
			if seen[e] {
				continue
			}
			seen[e] = true
			c := p.consumers[e.producer]
			if c == nil {
				c = &Consumers{}
				p.consumers[e.producer] = c
			}
			if e.onStart {
				c.OnStart = append(c.OnStart, consumer)
			} else {
				c.OnOutput = append(c.OnOutput, consumer)
			}
		}
	})
	return p
}
