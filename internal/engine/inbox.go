package engine

import (
	"sync"

	"repro/internal/registry"
)

// msgKind classifies an inbox message.
type msgKind uint8

const (
	// msgResult: the implementation returned (res, err).
	msgResult msgKind = iota + 1
	// msgDeadline: the activation's deadline passed on the wheel.
	msgDeadline
	// msgCancel: the controller interrupted the activation (force abort,
	// subtree reset, reconfiguration).
	msgCancel
	// msgTimer: a first-class delay fired for the run at path/gen.
	msgTimer
)

// msg is one input posted to an instance controller. Every message
// except a delay fire names the activation it is about; the first such
// message retires the activation (see retire in loop.go).
type msg struct {
	kind msgKind
	act  *taskCtx
	res  registry.Result
	err  error
	// path and gen identify the delay run of a msgTimer.
	path string
	gen  int
}

// inbox is the instance controller's one input queue for everything
// that happens off the loop: implementation results, activation
// deadlines, synthetic cancellations and delay fires. It is unbounded,
// so a poster never blocks — the shared wheel goroutine must not stall
// behind one busy instance, and an activation must not outlive its
// implementation waiting to deliver — and nudge, buffered by one, wakes
// the loop. Both change only under mu, so a pending nudge always means
// queued messages and the loop never wakes to an empty inbox. The loop
// swaps the queued slice for the one it finished with, so a steady
// state allocates nothing.
type inbox struct {
	mu     sync.Mutex
	msgs   []msg
	closed bool
	nudge  chan struct{}
}

// post queues m and wakes the loop. It refuses (false) once the
// controller has stopped; the poster then owns whatever m carried.
func (b *inbox) post(m msg) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.msgs = append(b.msgs, m)
	select {
	case b.nudge <- struct{}{}:
	default: // a nudge is already pending
	}
	b.mu.Unlock()
	return true
}

// take returns the queued messages in posting order and keeps spent,
// the batch the caller finished with, as the next queue.
func (b *inbox) take(spent []msg) []msg {
	clear(spent)
	b.mu.Lock()
	q := b.msgs
	b.msgs = spent[:0]
	select {
	case <-b.nudge: // posted after the loop woke: taken with the rest
	default:
	}
	b.mu.Unlock()
	return q
}

// len reports how many messages are queued.
func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.msgs)
}

// close refuses every later post and returns the messages still queued.
func (b *inbox) close() []msg {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	q := b.msgs
	b.msgs = nil
	return q
}
