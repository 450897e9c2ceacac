package engine

import (
	"testing"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/txn"
)

func newTestInbox() *inbox { return &inbox{nudge: make(chan struct{}, 1)} }

// TestInboxOrderAndReuse: messages come out in posting order, one nudge
// stands for any number of posts, and once the two slices have grown a
// steady post/take cycle allocates nothing.
func TestInboxOrderAndReuse(t *testing.T) {
	b := newTestInbox()
	for k := 0; k < 3; k++ {
		b.post(msg{kind: msgTimer, gen: k})
	}
	<-b.nudge
	batch := b.take(nil)
	if len(batch) != 3 || batch[0].gen != 0 || batch[2].gen != 2 {
		t.Fatalf("batch %+v, want gens 0, 1, 2 in order", batch)
	}
	select {
	case <-b.nudge:
		t.Fatal("a nudge is pending with an empty inbox")
	default:
	}
	cycle := func() {
		for k := 0; k < 3; k++ {
			b.post(msg{kind: msgTimer, gen: k})
		}
		<-b.nudge
		batch = b.take(batch)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a steady post/take cycle allocates %v times, want 0", n)
	}
}

// TestInboxRefusesAfterClose: close hands back what is queued, and every
// later post is refused and queues nothing.
func TestInboxRefusesAfterClose(t *testing.T) {
	b := newTestInbox()
	b.post(msg{kind: msgTimer})
	if rest := b.close(); len(rest) != 1 {
		t.Fatalf("close returned %d messages, want 1", len(rest))
	}
	if b.post(msg{kind: msgTimer}) {
		t.Fatal("post after close accepted")
	}
	if n := b.len(); n != 0 {
		t.Fatalf("len %d after a refused post, want 0", n)
	}
}

// TestRefusedResultAbortsTransaction: an atomic activation whose
// controller has stopped ends its own transaction, aborted, when its
// result post is refused.
func TestRefusedResultAbortsTransaction(t *testing.T) {
	mgr := txn.NewManager(store.NewMemStore())
	inst := &Instance{inbox: inbox{nudge: make(chan struct{}, 1)}}
	inst.inbox.close()
	c := &taskCtx{inst: inst, atomic: true, tx: mgr.Begin()}
	c.activate(func(registry.Context) (registry.Result, error) {
		return registry.Result{Output: "done"}, nil
	})
	if st := c.tx.Status(); st != txn.Aborted {
		t.Fatalf("transaction %s after a refused post, want aborted", st)
	}
}
