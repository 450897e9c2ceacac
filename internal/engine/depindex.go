package engine

// This file implements the dependency-indexed dirty-set scheduler. The
// instance's evaluation plan (core.Plan, built once per schema root and
// shared by every instance of the schema; rebuilt on the clone a
// reconfiguration swaps in) holds a reverse-dependency index: for each
// producer task path, the positions of the consumer tasks whose
// input-set bindings or compound-output mappings hold a source
// referencing it. At run time, every observable state transition of a
// run enqueues only its indexed consumers onto a dirty worklist, and
// evaluate drains the worklist in schema-DFS declaration order — so one
// completion event costs O(consumers) instead of a full rescan's
// O(tasks), while input-set and alternative selection stay
// bit-identical to that rescan (kept in oracle_test.go as the reference
// of the differential tests).

// usePlan installs the evaluation plan of the instance's root tree and
// empties the worklist, whose positions index the previous plan. Each
// plan position has at most one heap entry, so the heap is sized once
// and never grows. Called at construction and when a reconfiguration
// swaps the schema, on the goroutine owning the run map.
func (i *Instance) usePlan() {
	i.plan = i.root.Plan()
	n := len(i.plan.Paths)
	i.dirty = make([]bool, n)
	if cap(i.dirtyHeap) < n {
		i.dirtyHeap = make([]int, 0, n)
	}
	i.dirtyHeap = i.dirtyHeap[:0]
}

// markDirty enqueues one task path for re-evaluation. Paths outside the
// plan are dropped.
func (i *Instance) markDirty(path string) {
	if idx, ok := i.plan.Index[path]; ok {
		i.markDirtyAt(idx)
	}
}

// markDirtyAt enqueues the task at plan position idx; each marked
// position is mirrored by exactly one entry in the worklist heap or the
// drain's deferred batch.
func (i *Instance) markDirtyAt(idx int) {
	if i.dirty[idx] {
		return
	}
	i.dirty[idx] = true
	i.heapPush(idx)
}

// markAllDirty enqueues every live run; used where dependencies change
// wholesale (recovery, reconfiguration).
func (i *Instance) markAllDirty() {
	for path := range i.runs {
		i.markDirty(path)
	}
}

// noteStarted enqueues the consumers that input-share with the run at
// path; called when that run consumes an input set.
func (i *Instance) noteStarted(path string) {
	if c := i.plan.Consumers(path); c != nil {
		for _, idx := range c.OnStart {
			i.markDirtyAt(idx)
		}
	}
}

// noteOutput enqueues the consumers whose output-conditioned,
// unconditioned or notification sources reference the run at path;
// called when that run releases a mark, repeats, or terminates.
func (i *Instance) noteOutput(path string) {
	if c := i.plan.Consumers(path); c != nil {
		for _, idx := range c.OnOutput {
			i.markDirtyAt(idx)
		}
	}
}

// drainDirty processes the dirty worklist in rounds that mirror the
// passes of a full rescan: within one round, paths are visited in
// ascending schema-DFS order, and paths dirtied at or before the current
// scan position wait for the next round (exactly the set a full pass
// would only reach on its next iteration). This keeps input-set and
// alternative selection — which depend on the order progress is applied —
// bit-identical to the full-rescan scheduler.
func (i *Instance) drainDirty() {
	for len(i.dirtyHeap) > 0 {
		pos := -1
		var deferred []int
		for len(i.dirtyHeap) > 0 {
			idx := i.heapPop()
			if idx <= pos {
				// Dirtied at or before the scan position by progress made
				// this round: a full pass would only reach it next pass.
				deferred = append(deferred, idx)
				continue
			}
			pos = idx
			i.dirty[idx] = false
			i.evalRun(i.plan.Paths[idx])
		}
		for _, idx := range deferred {
			i.heapPush(idx)
		}
	}
}

// heapPush and heapPop maintain the min-heap of schema-order indexes
// backing the dirty worklist.
func (i *Instance) heapPush(idx int) {
	h := append(i.dirtyHeap, idx)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	i.dirtyHeap = h
}

func (i *Instance) heapPop() int {
	h := i.dirtyHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for c := 0; ; {
		s := c
		if l := 2*c + 1; l < n && h[l] < h[s] {
			s = l
		}
		if r := 2*c + 2; r < n && h[r] < h[s] {
			s = r
		}
		if s == c {
			break
		}
		h[c], h[s] = h[s], h[c]
		c = s
	}
	i.dirtyHeap = h
	return top
}

// evalRun applies one satisfaction check to the run at path, the same
// check a full-rescan pass applies to every run.
func (i *Instance) evalRun(path string) {
	r, ok := i.runs[path]
	if !ok {
		return // run was reset or reconfigured away after being enqueued
	}
	i.scans.Add(1)
	if !i.active(r) {
		return
	}
	switch {
	case r.st.State == RunWaiting:
		i.trySatisfy(r)
	case r.st.State == RunExecuting && r.task.Compound:
		i.tryCompoundOutputs(r)
	}
}
