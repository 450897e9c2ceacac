package execsvc

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/timers"
)

// Scheduled instantiation: the execution service's third temporal
// primitive (after the engine's delays and deadlines). A Schedule names
// a stored schema and an input set and asks the service to instantiate
// and start it after a delay, optionally on a recurring period — the
// cron of the workflow world, with the same durability contract as the
// engine's delays: every schedule is persisted through the store with
// its ABSOLUTE next-fire instant, and a restarted service re-arms it
// from that instant. A window missed while the service was down fires
// once at recovery (catch-up), then the cadence realigns to its original
// phase.

// Schedule describes one scheduled instantiation and carries its
// persisted progress.
type Schedule struct {
	// Name identifies the schedule; instances are named Name-1, Name-2, …
	Name string
	// Schema and Root select what to instantiate (as Instantiate).
	Schema string
	Root   string
	// Set and Inputs are handed to Start for every spawned instance.
	Set    string
	Inputs registry.Objects
	// After delays the first run. Zero with a period: first run after
	// one period. Zero without a period: run immediately.
	After time.Duration
	// Every is the recurrence period; zero makes the schedule one-shot.
	Every time.Duration
	// MaxRuns stops the schedule after that many runs; zero means
	// unlimited (one-shot schedules always stop after one).
	MaxRuns int

	// NextAt is the absolute instant of the next fire (persisted; this
	// is what survives a crash).
	NextAt time.Time
	// Fired counts the runs spawned so far.
	Fired int
	// Done marks an exhausted (or one-shot, fired) schedule.
	Done bool
	// LastErr records the most recent spawn failure, for diagnostics.
	LastErr string
}

var _ persist.Record = (*Schedule)(nil)

// AppendRecord implements persist.Record: the schedule's durable layout,
// fields in declaration order. Records written before it existed are
// gob and still read back (persist.Decode).
func (e Schedule) AppendRecord(b []byte) ([]byte, error) {
	b = persist.AppendString(b, e.Name)
	b = persist.AppendString(b, e.Schema)
	b = persist.AppendString(b, e.Root)
	b = persist.AppendString(b, e.Set)
	b, err := persist.AppendObjects(b, e.Inputs)
	if err != nil {
		return nil, err
	}
	b = persist.AppendInt64(b, int64(e.After))
	b = persist.AppendInt64(b, int64(e.Every))
	b = persist.AppendInt(b, e.MaxRuns)
	if b, err = persist.AppendTime(b, e.NextAt); err != nil {
		return nil, err
	}
	b = persist.AppendInt(b, e.Fired)
	b = persist.AppendBool(b, e.Done)
	return persist.AppendString(b, e.LastErr), nil
}

// ReadRecord implements persist.Record.
func (e *Schedule) ReadRecord(data []byte) error {
	r := persist.NewRecordReader(data)
	*e = Schedule{
		Name:    r.Str(),
		Schema:  r.Str(),
		Root:    r.Str(),
		Set:     r.Str(),
		Inputs:  r.Objects(),
		After:   time.Duration(r.Int64()),
		Every:   time.Duration(r.Int64()),
		MaxRuns: r.Int(),
		NextAt:  r.Time(),
		Fired:   r.Int(),
		Done:    r.Bool(),
		LastErr: r.Str(),
	}
	return r.Finish()
}

// schedKey is the store ID of a schedule's persistent record.
func schedKey(name string) store.ID {
	return store.ID("sched/" + strings.ReplaceAll(name, "/", "%2F"))
}

// schedPrefix lists every persisted schedule.
const schedPrefix = store.ID("sched/")

// ErrScheduleExists is returned when adding a duplicate schedule name.
var ErrScheduleExists = errors.New("schedule already exists")

// ErrScheduleNotFound is returned when removing an unknown schedule.
var ErrScheduleNotFound = errors.New("schedule not found")

// Scheduler persists and fires schedules on the engine's shared timing
// wheel. Construct with NewScheduler and attach to the service with
// SetScheduler.
type Scheduler struct {
	svc   *Service
	tm    *timers.Service
	clock timers.Clock
	st    store.Store

	mu      sync.Mutex
	entries map[string]*Schedule
	closed  bool
}

// NewScheduler returns a scheduler over the service's engine (whose
// clock and timing wheel it shares) and st, the store its records
// persist in.
func NewScheduler(svc *Service, st store.Store) *Scheduler {
	return &Scheduler{
		svc:     svc,
		tm:      svc.eng.Timers(),
		clock:   svc.eng.Clock(),
		st:      st,
		entries: make(map[string]*Schedule),
	}
}

// Add validates, persists and arms a new schedule.
func (s *Scheduler) Add(spec Schedule) error {
	if spec.Name == "" || spec.Schema == "" {
		return errors.New("schedule: name and schema are required")
	}
	if spec.After < 0 || spec.Every < 0 || spec.MaxRuns < 0 {
		return errors.New("schedule: after, every and maxruns must be non-negative")
	}
	// Fail fast on a schema that does not resolve or compile.
	if _, err := s.svc.schemas.Compile(spec.Schema); err != nil {
		return fmt.Errorf("schedule %s: %w", spec.Name, err)
	}
	now := s.clock.Now()
	switch {
	case spec.After > 0:
		spec.NextAt = now.Add(spec.After)
	case spec.Every > 0:
		spec.NextAt = now.Add(spec.Every)
	default:
		spec.NextAt = now
	}
	if spec.Every == 0 {
		spec.MaxRuns = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("scheduler is closed")
	}
	if _, dup := s.entries[spec.Name]; dup {
		return fmt.Errorf("schedule %s: %w", spec.Name, ErrScheduleExists)
	}
	e := spec
	if err := s.persistLocked(&e); err != nil {
		return err
	}
	s.entries[e.Name] = &e
	s.armLocked(&e)
	return nil
}

// Remove disarms and deletes a schedule.
func (s *Scheduler) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[name]; !ok {
		return fmt.Errorf("schedule %s: %w", name, ErrScheduleNotFound)
	}
	delete(s.entries, name)
	s.tm.Cancel("sched|" + name)
	if err := s.st.Delete(schedKey(name)); err != nil && !errors.Is(err, store.ErrNotFound) {
		return err
	}
	return nil
}

// List returns a snapshot of every schedule, sorted by name.
func (s *Scheduler) List() []Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Schedule, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Recover reloads persisted schedules after a restart and re-arms the
// live ones at their absolute NextAt instants (instants already past
// fire once immediately — the catch-up run for the window missed while
// the service was down).
func (s *Scheduler) Recover() (int, error) {
	ids, err := s.st.List(schedPrefix)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range ids {
		data, err := s.st.Read(id)
		if err != nil {
			return n, fmt.Errorf("schedule %s: %w", id, err)
		}
		var e Schedule
		if err := persist.Decode(data, &e); err != nil {
			return n, fmt.Errorf("schedule %s: %w", id, err)
		}
		s.entries[e.Name] = &e
		if e.Done {
			continue
		}
		s.armLocked(&e)
		n++
	}
	return n, nil
}

// Close stops firing. Persisted records remain for the next Recover.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for name := range s.entries {
		s.tm.Cancel("sched|" + name)
	}
}

// armLocked puts the schedule's next fire on the wheel. Callers hold mu.
func (s *Scheduler) armLocked(e *Schedule) {
	name := e.Name
	s.tm.Arm("sched|"+name, e.NextAt, func() {
		// Instantiating compiles schemas and commits store transactions;
		// keep that off the wheel goroutine. One-shot and self-limiting:
		// fire re-checks s.closed under the mutex before doing anything.
		//wflint:allow goroutinestop one-shot; fire() checks s.closed and returns, so it cannot outlive Close by more than one call
		go s.fire(name)
	})
}

// persistLocked writes the schedule record to the store (schedules are
// service state, not instance state: one atomic Write each).
func (s *Scheduler) persistLocked(e *Schedule) error {
	data, err := persist.Encode(e)
	if err != nil {
		return fmt.Errorf("encode schedule %s: %w", e.Name, err)
	}
	if err := s.st.Write(schedKey(e.Name), data); err != nil {
		return fmt.Errorf("persist schedule %s: %w", e.Name, err)
	}
	return nil
}

// fire spawns one scheduled run, advances (or finishes) the schedule,
// and re-arms it.
func (s *Scheduler) fire(name string) {
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok || e.Done || s.closed {
		s.mu.Unlock()
		return
	}
	// Spawn BEFORE advancing the persisted record: a crash in between
	// replays this fire after recovery and the ErrInstanceExists dedup
	// below absorbs the duplicate (at-least-once). Persisting first
	// would silently LOSE the run to a crash landing between the
	// persist and the spawn.
	run := e.Fired + 1
	instance := fmt.Sprintf("%s-%d", e.Name, run)
	spec := *e
	s.mu.Unlock()

	err := s.svc.Instantiate(instance, spec.Schema, spec.Root)
	if err == nil {
		err = s.svc.Start(instance, spec.Set, spec.Inputs.Clone())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok = s.entries[name]
	if !ok || s.closed {
		return // removed (or shut down) while spawning; no timer is armed
	}
	e.Fired = run
	if e.Every > 0 && (e.MaxRuns == 0 || e.Fired < e.MaxRuns) {
		// Fixed cadence: the next fire keeps the original phase. Windows
		// missed while down collapse into the one catch-up run that just
		// fired.
		e.NextAt = e.NextAt.Add(e.Every)
		if now := s.clock.Now(); !e.NextAt.After(now) {
			missed := now.Sub(e.NextAt)/e.Every + 1
			e.NextAt = e.NextAt.Add(missed * e.Every)
		}
	} else {
		e.Done = true
	}
	switch {
	case errors.Is(err, engine.ErrInstanceExists):
		// Either the benign recovery replay (the crash landed between
		// the spawn and this persist) or a collision with an older
		// schedule's leftover instances — the run may not have spawned,
		// so say so on the row instead of dropping it silently.
		e.LastErr = fmt.Sprintf("run %d: instance %s already exists (recovery replay, or collision with an older instance)", run, instance)
	case err != nil:
		e.LastErr = fmt.Sprintf("run %d: %v", run, err)
	}
	if perr := s.persistLocked(e); perr != nil {
		e.LastErr = perr.Error()
	}
	if !e.Done {
		s.armLocked(e)
	}
}
