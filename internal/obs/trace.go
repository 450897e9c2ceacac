package obs

import (
	"crypto/rand"
	"sort"
	"sync"
	"time"
)

// Span is one timed operation in an activation trace. The trace ID is
// minted when the instance is instantiated and never changes; every
// span carries it, plus its own span ID and its parent's, so spans
// recorded by different processes (coordinator A, an executor,
// coordinator B after a lease steal) stitch into one tree. The root
// span's SpanID equals the TraceID, so children of the root can be
// parented without carrying extra state.
type Span struct {
	TraceID string
	SpanID  string
	Parent  string // parent SpanID; empty for the root

	Name     string // span taxonomy: see docs/OBSERVABILITY.md
	Instance string
	Task     string // task path, when task-scoped

	Start time.Time
	End   time.Time

	Err   string            // non-empty when the spanned operation failed
	Attrs map[string]string // small, low-cardinality annotations
}

// NewID returns a 16-hex-digit random ID for traces and spans.
// crypto/rand, not the clock: ID minting must stay off the timers.Clock
// so deterministic simulations don't entangle IDs with virtual time.
// Every activation mints one, so the digits are encoded into a stack
// array and the returned string is the only allocation.
func NewID() string {
	const digits = "0123456789abcdef"
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// rand.Read only fails when the OS entropy source is broken;
		// degrade to a constant rather than take down the hot path.
		return "0000000000000000"
	}
	var dst [16]byte
	for k, v := range b {
		dst[2*k], dst[2*k+1] = digits[v>>4], digits[v&0x0f]
	}
	return string(dst[:])
}

// Tracer is a bounded in-memory span store: a ring of the most recent
// spans, queryable by trace ID or instance. Recording is mutex-guarded
// but O(1) and allocation-free past the ring itself; a nil *Tracer
// no-ops, so tracing is droppable wholesale.
type Tracer struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
	// index maps a live span ID to its buffer slot so Import dedup is
	// O(imported), not O(capacity): rebuilding a seen-set from the ring
	// on every executor reply showed up as the dominant dispatch cost
	// once the ring filled. Slots are reclaimed as the ring evicts.
	index map[string]int
}

// DefaultTraceCapacity bounds the process-global tracer.
const DefaultTraceCapacity = 4096

var defaultTracer = NewTracer(DefaultTraceCapacity)

// DefaultTracer is the process-global tracer the daemons expose on
// their debug listeners and over the execsvc trace verb.
func DefaultTracer() *Tracer { return defaultTracer }

// NewTracer returns a tracer retaining the most recent capacity spans
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{buf: make([]Span, capacity), index: make(map[string]int, capacity)}
}

// putLocked stores sp in the next ring slot, evicting (and de-indexing)
// whatever lived there. t.mu held.
func (t *Tracer) putLocked(sp Span) {
	if old := t.buf[t.next].SpanID; old != "" {
		// Only drop the index entry if it still points at the slot being
		// evicted: a re-recorded span ID may have a newer occurrence
		// elsewhere in the ring, and that one stays live.
		if slot, ok := t.index[old]; ok && slot == t.next {
			delete(t.index, old)
		}
	}
	t.buf[t.next] = sp
	if sp.SpanID != "" {
		t.index[sp.SpanID] = t.next
	}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

// Record stores one finished span, evicting the oldest past capacity.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.putLocked(sp)
	t.mu.Unlock()
}

// Import records spans produced elsewhere (an executor's response, a
// recovered instance's persisted spans), skipping span IDs already
// present so re-imports — a partition recovered twice, a retried RPC —
// don't duplicate the tree.
func (t *Tracer) Import(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, sp := range spans {
		if sp.SpanID == "" {
			continue
		}
		if _, dup := t.index[sp.SpanID]; dup {
			continue
		}
		t.putLocked(sp)
	}
	t.mu.Unlock()
}

// snapshotLocked returns the live spans oldest-first (t.mu held).
func (t *Tracer) snapshotLocked() []Span {
	if !t.full {
		return t.buf[:t.next]
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Spans returns every retained span, oldest recording first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.snapshotLocked()...)
}

// ByTrace returns the retained spans of one trace, sorted by start
// time (ties by span ID, so the order is stable).
func (t *Tracer) ByTrace(traceID string) []Span {
	return t.filter(func(sp *Span) bool { return sp.TraceID == traceID })
}

// ByInstance returns the retained spans of one instance, sorted by
// start time.
func (t *Tracer) ByInstance(instance string) []Span {
	return t.filter(func(sp *Span) bool { return sp.Instance == instance })
}

func (t *Tracer) filter(keep func(*Span) bool) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Span
	for _, sp := range t.snapshotLocked() {
		if keep(&sp) {
			out = append(out, sp)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}
