package engine

import (
	"encoding/gob"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
)

// RunState is the lifecycle state of one task run, matching the task
// transition diagram of Fig. 3.
type RunState int

// Run states.
const (
	// RunWaiting: input dependencies not yet satisfied.
	RunWaiting RunState = iota + 1
	// RunExecuting: the implementation is running (or, for compound
	// tasks, constituents are active).
	RunExecuting
	// RunCompleted: terminated in a non-abort outcome.
	RunCompleted
	// RunAborted: terminated in an abort state (no side effects).
	RunAborted
	// RunFailed: implementation contract violation, or retries exhausted
	// with no abort outcome declared to absorb the failure.
	RunFailed
)

// String names the state.
func (s RunState) String() string {
	switch s {
	case RunWaiting:
		return "waiting"
	case RunExecuting:
		return "executing"
	case RunCompleted:
		return "completed"
	case RunAborted:
		return "aborted"
	case RunFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunCompleted || s == RunAborted || s == RunFailed
}

// OutputRec records one produced output of a run within the current
// repeat iteration.
type OutputRec struct {
	Output  string
	Kind    core.OutputKind
	Objects registry.Objects
	// Iteration is the repeat iteration during which the output was
	// produced.
	Iteration int
	// At is the production time.
	At time.Time
}

// runState is the persisted state of one task run. It lives in a
// persistent atomic object ("inter-task dependencies recorded in
// persistent shared objects"), keyed by instance and task path.
type runState struct {
	Path      string
	State     RunState
	ChosenSet string
	Inputs    registry.Objects
	// Outputs holds the current-iteration outputs (marks first, then the
	// terminal record). Cleared when the task repeats.
	Outputs []OutputRec
	// LastRepeat is the most recent repeat-outcome record; visible only
	// to the task's own input sources (Section 4.2: repeat objects are
	// not usable by any other task).
	LastRepeat *OutputRec
	// MarksEmitted tracks which marks were released this iteration.
	MarksEmitted map[string]bool
	Attempt      int
	Iteration    int
}

// run is the in-memory controller state for one task instance run.
type run struct {
	task *core.Task
	st   runState
	// gen is an instance-unique generation number; completions carry the
	// generation of the run that spawned them so late results of reset or
	// cancelled activations are dropped.
	gen int
	// cancel is closed to interrupt an executing implementation (force
	// abort, shutdown).
	cancel chan struct{}
	// delayArmed reports a pending first-class delay timer on the wheel
	// (see timers.go); such runs execute without a worker.
	delayArmed bool
	// delayDeadline is the armed delay's absolute deadline; handleTimer
	// derives the fire-lag observation from it.
	delayDeadline time.Time
	// actSpan is the open span of the current activation attempt (zero
	// when none); closed by finishActSpan on completion. See obs.go.
	actSpan obs.Span
	// pendingAbort holds the abort outcome requested by AbortTask while
	// the task was executing.
	pendingAbort string
}

// findOutput returns the current-iteration record of the named output.
func (r *run) findOutput(name string) *OutputRec {
	for i := range r.st.Outputs {
		if r.st.Outputs[i].Output == name {
			return &r.st.Outputs[i]
		}
	}
	return nil
}

// terminalRec returns the terminal output record, if the run is terminal
// and produced one.
func (r *run) terminalRec() *OutputRec {
	if !r.st.State.Terminal() || len(r.st.Outputs) == 0 {
		return nil
	}
	last := &r.st.Outputs[len(r.st.Outputs)-1]
	if last.Kind == core.Mark {
		return nil
	}
	return last
}

// runKey is the store ID of a run's persistent state. The task path is
// collapsed into a single key segment ("/" becomes "%2F") because a
// path-per-segment store (FileStore) would otherwise need the compound's
// own run object ("inst/i/run/app", a file) to double as the directory
// holding its constituents ("inst/i/run/app/t1") — constituent states
// silently failed to persist.
func runKey(instance, path string) store.ID {
	return store.ID("inst/" + instance + "/run/" + strings.ReplaceAll(path, "/", "%2F"))
}

// metaKey is the store ID of an instance's metadata.
func metaKey(instance string) store.ID {
	return store.ID("inst/" + instance + "/meta")
}

// reconfigKey is the store ID of the n-th reconfiguration record.
func reconfigKey(instance string, seq int) store.ID {
	return store.ID(fmt.Sprintf("inst/%s/reconfig/%06d", instance, seq))
}

// instanceMeta is the persisted instance header used by recovery.
type instanceMeta struct {
	ID           string
	SchemaName   string
	SchemaSource string
	RootName     string
	Started      bool
	StartSet     string
	StartInputs  registry.Objects
	ReconfigSeq  int
	// TraceID is the activation-trace identifier minted at
	// instantiation; it survives crashes with the meta so spans recorded
	// before and after a takeover share one trace. Metas persisted
	// before tracing existed decode it empty; recovery re-mints then.
	TraceID string
}

// Register payload types commonly carried by Values with gob: Values
// cross the orb wire as gob, and run states written before the record
// codec are gob streams. The codec (persist.AppendObjects) tags exactly
// this set; applications register their own concrete types the same way,
// and the codec carries those as one gob value each.
func init() { //nolint:gochecknoinits // gob type registration is the documented use of init
	gob.Register("")
	gob.Register(0)
	gob.Register(int64(0))
	gob.Register(0.0)
	gob.Register(false)
	gob.Register([]byte(nil))
	gob.Register([]string(nil))
	gob.Register(map[string]string(nil))
	gob.Register(time.Time{})
}
