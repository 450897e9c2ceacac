package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// kind names one seam a span was recorded at. The order matters: the
// generator's own calls come first (see phase), calls into the engine
// before the other two (see engineCall).
type kind int

const (
	kInstance kind = iota
	kInstantiate
	kStart
	kWait
	kRecoverMatching
	kOpenReplay
	kPersistRecover
	kCompile
	kBinding
	kStoreWrite
	kStoreRead
	kStoreList
	kLogWrite
	kLogRead
	kInvoke
	kExecutor
	nKinds
)

var kindNames = [nKinds]string{
	"instance", "engine.instantiate", "engine.start", "engine.wait", "engine.recover_matching",
	"store.open_replay", "persist.recover", "script.compile", "registry.binding",
	"store.write", "store.read", "store.list", "txn.log_write", "txn.log_read",
	"taskexec.invoke", "taskexec.executor",
}

// phase kinds are the sequential top-level calls the generator makes;
// whatever part of the instance span they leave uncovered is the
// generator's own time.
func (k kind) phase() bool { return k >= kInstantiate && k <= kPersistRecover }

// engineCall kinds are calls into the engine itself: the time inside
// them that no other seam covers is the engine's self time.
func (k kind) engineCall() bool { return k >= kInstantiate && k <= kRecoverMatching }

// Count-type observations made at the seams.
const (
	cEvents = iota
	cStarts
	cStoreBatches
	cStoreOps
	cStoreBytes
	cStoreReads
	cLogWrites
	cLogDeletes
	cLogBytes
	cLogCommits
	cDials
	cConnWrites
	cWireOut
	cWireIn
	nCounts
)

type span struct {
	kind       kind
	task       string
	start, end int64 // ns since tracer.t0
}

// instTrace collects the spans of one trace: an instance, or on
// recover-wal one recovery cycle.
type instTrace struct {
	id     string
	starts atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// keepSpans bounds the spans written out in full (whole traces, first
// come first kept); later traces are folded into the totals as they
// finish, so memory stays flat.
const keepSpans = 20000

// opShape is one recorded state-batch op: what the persist direct
// drive replays.
type opShape struct {
	id     string
	size   int
	delete bool
}

const keepBatchShapes = 512

// tracer is the traced run's recorder. Every seam reports to it; the
// untraced run has none installed.
type tracer struct {
	t0 time.Time

	insts sync.Map // instance id -> *instTrace
	// cycle, when set, owns every span whatever instance it names: one
	// recover-wal cycle recovers sixteen instances as one trace.
	cycle atomic.Pointer[instTrace]

	counts [nCounts]atomic.Int64
	durNs  [nKinds]atomic.Int64
	calls  [nKinds]atomic.Int64

	mu        sync.Mutex
	rootNs    int64
	selfNs    int64
	outsideNs int64
	kept      []*instTrace
	keptSpans int
	shapes    [][]opShape
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) add(c int, n int64) { tr.counts[c].Add(n) }

// reset forgets everything observed so far (set-up and warm-up), once
// no trace is open.
func (tr *tracer) reset() {
	for i := range tr.counts {
		tr.counts[i].Store(0)
	}
	for i := range tr.durNs {
		tr.durNs[i].Store(0)
		tr.calls[i].Store(0)
	}
	tr.mu.Lock()
	tr.rootNs, tr.selfNs, tr.outsideNs = 0, 0, 0
	tr.kept, tr.keptSpans, tr.shapes = nil, 0, nil
	tr.mu.Unlock()
}

// begin opens a trace for an instance about to be created.
func (tr *tracer) begin(id string) *instTrace {
	it := &instTrace{id: id}
	tr.insts.Store(id, it)
	return it
}

func (tr *tracer) lookup(inst string) *instTrace {
	if it := tr.cycle.Load(); it != nil {
		return it
	}
	if it, ok := tr.insts.Load(inst); ok {
		return it.(*instTrace)
	}
	return nil
}

// span records one finished seam call that began at start on behalf of
// inst. Calls that cannot be tied to a live trace still count in the
// totals.
func (tr *tracer) span(inst string, k kind, task string, start time.Time) {
	tr.spanAt(tr.lookup(inst), k, task, start, time.Now())
}

// spanAt records a span of known extent into it (nil: totals only).
func (tr *tracer) spanAt(it *instTrace, k kind, task string, start, end time.Time) {
	tr.durNs[k].Add(int64(end.Sub(start)))
	tr.calls[k].Add(1)
	if it != nil {
		it.mu.Lock()
		it.spans = append(it.spans, span{kind: k, task: task, start: int64(start.Sub(tr.t0)), end: int64(end.Sub(tr.t0))})
		it.mu.Unlock()
	}
}

// recordBatch keeps the shape of one of the first state batches for
// the persist direct drive.
func (tr *tracer) recordBatch(ops []store.BatchOp) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.shapes) >= keepBatchShapes {
		return
	}
	shape := make([]opShape, len(ops))
	for i, op := range ops {
		shape[i] = opShape{id: string(op.ID), size: len(op.Data), delete: op.Delete}
	}
	tr.shapes = append(tr.shapes, shape)
}

// finish closes a trace whose root span ran from start to end and folds
// it into the totals: self time is the root minus the union of every
// span that is not a call into the engine itself (children overlap in
// fan-outs, so durations cannot simply be summed).
func (tr *tracer) finish(it *instTrace, start, end time.Time) {
	tr.insts.Delete(it.id)
	tr.durNs[kInstance].Add(int64(end.Sub(start)))
	tr.calls[kInstance].Add(1)
	root := span{kind: kInstance, start: int64(start.Sub(tr.t0)), end: int64(end.Sub(tr.t0))}

	it.mu.Lock()
	spans := it.spans
	it.mu.Unlock()
	var covered []span
	var phases int64
	for _, s := range spans {
		if s.kind.phase() {
			phases += s.end - s.start
		}
		if !s.kind.engineCall() {
			covered = append(covered, s)
		}
	}
	rootNs := root.end - root.start
	self := rootNs - unionNs(covered, root.start, root.end)

	tr.mu.Lock()
	tr.rootNs += rootNs
	tr.selfNs += self
	tr.outsideNs += rootNs - phases
	if tr.keptSpans < keepSpans {
		it.spans = append([]span{root}, spans...)
		tr.kept = append(tr.kept, it)
		tr.keptSpans += len(it.spans)
	}
	tr.mu.Unlock()
}

// unionNs is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func unionNs(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total int64
	at := lo
	for _, s := range spans {
		from, to := max(s.start, at), min(s.end, hi)
		if to > from {
			total += to - from
			at = to
		}
	}
	return total
}

// usPer is the total time of kind k in microseconds, divided by n.
func (tr *tracer) usPer(k kind, n float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(tr.durNs[k].Load()) / 1e3 / n
}

func (tr *tracer) count(c int) float64 { return float64(tr.counts[c].Load()) }

// spanJSON is one span of the written trace. Parent is the id of the
// span that caused it (0 is the trace's root span, -1 marks the root
// itself); spans of one instance share Trace.
type spanJSON struct {
	Name    string  `json:"name"`
	Trace   string  `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Task    string  `json:"task,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// parentOf picks the span that caused spans[i]: the dispatch for an
// executor-side span, else the generator's call it ran under, else the
// root.
func parentOf(spans []span, i int) int {
	s := spans[i]
	if s.kind == kInstance {
		return -1
	}
	if s.kind.phase() {
		return 0
	}
	holds := func(p span) bool { return p.start <= s.start && s.start <= p.end }
	if s.kind == kExecutor {
		for j, p := range spans {
			if p.kind == kInvoke && p.task == s.task && holds(p) {
				return j
			}
		}
	}
	for j, p := range spans {
		if p.kind.phase() && holds(p) {
			return j
		}
	}
	return 0
}

// write dumps the kept traces to dir/trace-<workload>.json.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	tr.mu.Lock()
	kept := tr.kept
	tr.mu.Unlock()
	var out []spanJSON
	for _, it := range kept {
		for i, s := range it.spans {
			out = append(out, spanJSON{
				Name: kindNames[s.kind], Trace: it.id, ID: i, Parent: parentOf(it.spans, i), Task: s.task,
				StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3,
			})
		}
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": out})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, data, 0o644)
}
