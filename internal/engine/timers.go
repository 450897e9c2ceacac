package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// This file integrates the durable temporal subsystem (internal/timers)
// into the engine. Two temporal primitives ride the engine's shared
// timing wheel:
//
//   - First-class delays: a task whose implementation clause carries a
//     "delay" property ("delay" is "5s") does not run an implementation
//     at all. Starting it arms a wheel timer at an ABSOLUTE deadline
//     (clock.Now() + delay) and persists a timer record in the same
//     batch as the Executing run state; when the timer fires, the task
//     terminates in its declared outcome (the "outcome" property, else
//     the first declared outcome), echoing its inputs into same-named
//     output objects exactly like the builtin pattern schemes. Recovery
//     re-arms pending records at their original absolute deadlines, so
//     a crash mid-delay neither loses the timer nor stretches it: it
//     fires once, at the instant it was always going to fire. This is
//     the durable replacement for the sleeping-goroutine "timer task"
//     pattern of Section 4.2 (builtin "timer:<dur>:<outcome>").
//
//   - Per-activation deadlines: Config.DefaultDeadline and the
//     "deadline" implementation property bound each activation through
//     a wheel entry that posts a deadline message to the instance inbox,
//     instead of a per-activation time.Timer. Deadlines are
//     deliberately volatile: a recovered activation is a fresh attempt
//     and gets its full deadline again (at-least-once execution).
//
// Timer fires enter the instance loop as inbox messages and propagate
// through the dirty-set scheduler like any other availability event. The
// inbox never blocks a poster: one slow instance must not stall the
// shared wheel goroutine, and with it every other instance's timers.

// delayRec is the persisted record of one pending delay, written through
// the store in the same batch as the Executing run state it belongs to
// (see flushRuns). Its Deadline is absolute: recovery re-arms it as-is.
type delayRec struct {
	Path      string
	Deadline  time.Time
	Iteration int
}

// timerRecKey is the store ID of a pending delay's record (path escaped
// like runKey).
func timerRecKey(instance, path string) store.ID {
	return store.ID("inst/" + instance + "/timer/" + strings.ReplaceAll(path, "/", "%2F"))
}

// timerPrefix is the prefix of an instance's pending delay records.
func timerPrefix(instance string) store.ID {
	return store.ID("inst/" + instance + "/timer/")
}

// delayID is the wheel entry ID of an instance's delay timer.
func delayID(instance, path string) string {
	return "delay|" + instance + "|" + path
}

// delayOf parses the task's "delay" implementation property. ok reports
// whether the property is present; err a malformed duration.
func delayOf(t *core.Task) (d time.Duration, ok bool, err error) {
	raw, ok := t.Implementation["delay"]
	if !ok {
		return 0, false, nil
	}
	d, err = time.ParseDuration(raw)
	if err != nil {
		return 0, true, fmt.Errorf("task %s: bad \"delay\" property %q: %v", t.Path(), raw, err)
	}
	if d < 0 {
		return 0, true, fmt.Errorf("task %s: negative \"delay\" property %q", t.Path(), raw)
	}
	return d, true, nil
}

// delayOutcome resolves the output a delay task produces when its timer
// fires: the "outcome" implementation property when present, else the
// first declared plain outcome of the class.
func delayOutcome(t *core.Task) *core.Output {
	if name, ok := t.Implementation["outcome"]; ok {
		return t.Class.Output(name)
	}
	if outs := t.Class.Outcomes(core.Outcome); len(outs) > 0 {
		return outs[0]
	}
	return nil
}

// armDelay arms the wheel for a freshly started (or recovered) delay run
// and stages its durable record. Runs on the goroutine owning the run
// map.
func (i *Instance) armDelay(r *run, deadline time.Time) {
	r.delayArmed = true
	r.delayDeadline = deadline
	i.armedTimers++
	i.eng.met.timerArms.Inc()
	i.persistTimerRec(r.st.Path, &delayRec{Path: r.st.Path, Deadline: deadline, Iteration: r.st.Iteration})
	path, gen := r.st.Path, r.gen
	i.eng.timers.Arm(delayID(i.id, path), deadline, func() {
		i.inbox.post(msg{kind: msgTimer, path: path, gen: gen})
	})
	i.emit(Event{Task: path, Kind: EventTimerArmed, Deadline: deadline, Iteration: r.st.Iteration})
}

// cancelDelay disarms a pending delay (reset, abort, reconfiguration)
// and stages the deletion of its record.
func (i *Instance) cancelDelay(r *run) {
	if !r.delayArmed {
		return
	}
	r.delayArmed = false
	i.armedTimers--
	i.eng.timers.Cancel(delayID(i.id, r.st.Path))
	i.deleteTimerRec(r.st.Path)
}

// handleTimer processes the delay fire of the run at path, generation
// gen, on the loop goroutine: the run terminates in its delay outcome,
// and the durable record is deleted in the same batch as the terminal
// run state.
func (i *Instance) handleTimer(path string, gen int) {
	r, ok := i.runs[path]
	if !ok || r.gen != gen || r.st.State != RunExecuting || !r.delayArmed {
		return // stale: the run was reset, aborted or reconfigured away
	}
	r.delayArmed = false
	i.armedTimers--
	i.deleteTimerRec(r.st.Path)
	// The fire counter moves once per surviving (non-stale) fire; with a
	// shared registry across simulated coordinator generations it is the
	// exactly-once witness for a delay that straddles a crash.
	i.eng.met.timerFires.Inc()
	i.eng.met.timerFireLag.ObserveSince(i.eng.clock, r.delayDeadline)
	if r.pendingAbort != "" {
		i.forceAbortNow(r)
		return
	}
	out := delayOutcome(r.task)
	if out == nil {
		i.failRun(r, fmt.Errorf("delay task declares no outcome to produce"))
		return
	}
	// Echo semantics, as the builtin pattern schemes: inputs become
	// same-named output objects.
	objects, err := i.conformObjects(out, r.st.Inputs)
	if err != nil {
		i.failRun(r, err)
		return
	}
	i.emit(Event{Task: r.st.Path, Kind: EventTimerFired, Output: out.Name, Iteration: r.st.Iteration})
	rec := OutputRec{Output: out.Name, Kind: out.Kind, Objects: objects, Iteration: r.st.Iteration, At: i.eng.clock.Now()}
	switch out.Kind {
	case core.Mark:
		i.failRun(r, fmt.Errorf("delay outcome %q is a mark", out.Name))
	case core.RepeatOutcome:
		i.repeatRun(r, rec)
	default:
		i.completeRun(r, rec)
	}
}

// rearmTimers re-arms the instance's pending delay records, whose keys
// the recovery pass's listing supplies, at their original absolute
// deadlines after recovery, deleting records that no longer match a
// live delay run, and conservatively re-arming a delay run whose record
// is missing. The drain batch commits a record with its run state, so
// only a log written by an older tree, which framed each op of a batch
// separately, can tear the two apart.
// Called by Recover on the goroutine that owns the run map, before the
// loop starts.
func (i *Instance) rearmTimers(ids []store.ID) error {
	for _, sid := range ids {
		var rec delayRec
		if err := i.eng.preg.Peek(sid, &rec); err != nil {
			return fmt.Errorf("timer record %s: %w", sid, err)
		}
		r, ok := i.runs[rec.Path]
		if !ok || r.st.State != RunExecuting || r.st.Iteration != rec.Iteration {
			i.deleteTimerRec(rec.Path) // stale: the run moved on before the crash
			continue
		}
		if _, isDelay, _ := delayOf(r.task); !isDelay {
			i.deleteTimerRec(rec.Path) // reconfigured away from a delay task
			continue
		}
		i.armDelay(r, rec.Deadline)
	}
	for _, path := range i.plan.Paths {
		r, ok := i.runs[path]
		if !ok || r.st.State != RunExecuting || r.task.Compound || r.delayArmed {
			continue
		}
		d, isDelay, err := delayOf(r.task)
		if err != nil || !isDelay {
			continue
		}
		// Executing delay run without a surviving record: restart the
		// full duration from now (the only recoverable meaning left).
		i.armDelay(r, i.eng.clock.Now().Add(d))
	}
	return nil
}

// persistTimerRec stages a timer-record write into the current flush
// batch.
func (i *Instance) persistTimerRec(path string, rec *delayRec) {
	if i.eng.cfg.Ephemeral {
		return
	}
	i.bufferTimerRec(path, rec)
}

// deleteTimerRec stages the removal of a timer record (same batching
// discipline as persistTimerRec).
func (i *Instance) deleteTimerRec(path string) {
	if i.eng.cfg.Ephemeral {
		return
	}
	i.bufferTimerRec(path, nil)
}

// bufferTimerRec stages one timer-record write (nil = delete) for the
// next flush; later stagings of the same path supersede earlier ones.
// Owned by the loop goroutine.
func (i *Instance) bufferTimerRec(path string, rec *delayRec) {
	if _, ok := i.pendingTimers[path]; !ok {
		i.pendingTimerOrder = append(i.pendingTimerOrder, path)
	}
	i.pendingTimers[path] = rec
}
