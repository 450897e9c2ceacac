package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestPlanOrderAndConsumers: a plan lists the tree in Walk order and
// indexes each producer's consumers by the event that can feed them.
func TestPlanOrderAndConsumers(t *testing.T) {
	s := compile(t, "diamond", workload.Diamond(2))
	root := s.Tasks[0]
	p := root.Plan()
	var walk []string
	root.Walk(func(x *core.Task) { walk = append(walk, x.Path()) })
	if !reflect.DeepEqual(p.Paths, walk) {
		t.Fatalf("plan order %v, want Walk order %v", p.Paths, walk)
	}
	for i, path := range p.Paths {
		if p.Index[path] != i {
			t.Errorf("Index[%s] = %d, want %d", path, p.Index[path], i)
		}
	}
	at := func(paths ...string) []int {
		var out []int
		for _, path := range paths {
			out = append(out, p.Index[path])
		}
		return out
	}
	// head reads the root's input ("if input main"): it is fed when the
	// root starts. b0 and b1 read head's output; j0 joins them; the
	// root's outcome reads j0.
	if c := p.Consumers("app"); c == nil || !reflect.DeepEqual(c.OnStart, at("app/head")) || c.OnOutput != nil {
		t.Errorf("consumers of app = %+v", c)
	}
	if c := p.Consumers("app/head"); c == nil || !reflect.DeepEqual(c.OnOutput, at("app/b0", "app/b1")) {
		t.Errorf("consumers of app/head = %+v", c)
	}
	if c := p.Consumers("app/j0"); c == nil || !reflect.DeepEqual(c.OnOutput, at("app")) {
		t.Errorf("consumers of app/j0 = %+v", c)
	}
	if c := p.Consumers("app/ghost"); c != nil {
		t.Errorf("consumers of a task nobody reads = %+v, want nil", c)
	}
}

// TestPlanIsSharedAndCloneBuildsItsOwn: concurrent callers get the one
// memoised plan; a Clone changed by a reconfiguration op builds its own
// and leaves the original's untouched.
func TestPlanIsSharedAndCloneBuildsItsOwn(t *testing.T) {
	s := compile(t, "chain", workload.Chain(3))
	root := s.Tasks[0]
	plans := make([]*core.Plan, 8)
	var wg sync.WaitGroup
	for k := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[k] = root.Plan()
		}()
	}
	wg.Wait()
	for _, p := range plans {
		if p != plans[0] {
			t.Fatal("concurrent callers got different plans")
		}
	}
	want := append([]string(nil), plans[0].Paths...)

	clone := s.Clone()
	croot := clone.Tasks[0]
	extra := &core.Task{Name: "t4", Class: croot.Constituents[0].Class}
	if err := clone.AddTask(croot, extra); err != nil {
		t.Fatal(err)
	}
	if got := croot.Plan().Paths; !reflect.DeepEqual(got, append(append([]string(nil), want...), "app/t4")) {
		t.Errorf("clone's plan %v", got)
	}
	if root.Plan() != plans[0] || !reflect.DeepEqual(root.Plan().Paths, want) {
		t.Errorf("original plan changed: %v, want %v", root.Plan().Paths, want)
	}
}

// TestPathFollowsAMove: a task's memoised path is rebuilt when a
// reconfiguration moves it under another parent.
func TestPathFollowsAMove(t *testing.T) {
	s := compile(t, "chain", workload.Chain(1))
	root := s.Tasks[0]
	nt := &core.Task{Name: "t9", Class: root.Constituents[0].Class}
	if got := nt.Path(); got != "t9" {
		t.Fatalf("detached path %q", got)
	}
	if err := s.AddTask(root, nt); err != nil {
		t.Fatal(err)
	}
	if got := nt.Path(); got != "app/t9" {
		t.Errorf("path after AddTask %q, want app/t9", got)
	}
	if err := s.RemoveTask(root, "t9"); err != nil {
		t.Fatal(err)
	}
	if got := nt.Path(); got != "t9" {
		t.Errorf("path after RemoveTask %q, want t9", got)
	}
}
