// Package execsvc exposes the workflow execution service over the orb —
// the second of the two transactional services of Fig. 4. Clients
// (including the administrative tools, which the paper notes can
// themselves be workflow applications) instantiate schemas stored in the
// repository service, start them, observe their event traces, force
// aborts, and reconfigure them dynamically.
package execsvc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/repository"
)

// SchemaSource resolves schema names to compiled schemas; satisfied by
// the repository service (co-located) or by a repository client adapter
// (remote).
type SchemaSource interface {
	Compile(name string) (*core.Schema, error)
}

// clientSource adapts a remote repository client: sources are fetched
// over the orb and compiled locally.
type clientSource struct {
	c *repository.Client
}

// Compile implements SchemaSource.
func (s clientSource) Compile(name string) (*core.Schema, error) {
	e, err := s.c.Get(name)
	if err != nil {
		return nil, err
	}
	return compileSource(name, e.Source)
}

// FromRepositoryClient wraps a remote repository client as a SchemaSource.
func FromRepositoryClient(c *repository.Client) SchemaSource { return clientSource{c: c} }

// Service is the execution service: an engine plus schema resolution,
// and optionally a Scheduler for timed instantiation.
type Service struct {
	eng     *engine.Engine
	schemas SchemaSource
	sched   *Scheduler
	// own gates instance-scoped operations in the sharded topology; nil
	// (single-coordinator) owns everything. See SetOwnership.
	own Ownership
	// health reports per-partition store health in the sharded topology;
	// nil (single-coordinator) reports nothing. See SetShardHealth.
	health func() map[int]string
}

// New returns an execution service over the engine and schema source.
func New(eng *engine.Engine, schemas SchemaSource) *Service {
	return &Service{eng: eng, schemas: schemas}
}

// Engine exposes the underlying engine (local administration).
func (s *Service) Engine() *engine.Engine { return s.eng }

// SetScheduler attaches a scheduler (see NewScheduler); the schedule
// servant methods fail until one is attached.
func (s *Service) SetScheduler(sched *Scheduler) { s.sched = sched }

// Scheduler returns the attached scheduler, or nil.
func (s *Service) Scheduler() *Scheduler { return s.sched }

// errNoScheduler is returned by schedule operations on a service without
// an attached scheduler.
var errNoScheduler = errors.New("scheduling is not enabled on this execution service")

// ScheduleAdd registers a scheduled instantiation.
func (s *Service) ScheduleAdd(spec Schedule) error {
	if s.sched == nil {
		return errNoScheduler
	}
	return s.sched.Add(spec)
}

// ScheduleRemove deletes a schedule.
func (s *Service) ScheduleRemove(name string) error {
	if s.sched == nil {
		return errNoScheduler
	}
	return s.sched.Remove(name)
}

// Schedules lists the registered schedules.
func (s *Service) Schedules() ([]Schedule, error) {
	if s.sched == nil {
		return nil, errNoScheduler
	}
	return s.sched.List(), nil
}

// Instantiate creates an instance of the named schema.
func (s *Service) Instantiate(instance, schemaName, rootName string) error {
	if err := s.guard(instance); err != nil {
		return err
	}
	schema, err := s.schemas.Compile(schemaName)
	if err != nil {
		return fmt.Errorf("instantiate %s: %w", instance, err)
	}
	// A handoff mid-commit (the store fenced or unmounted, or the
	// instance stopped before it started) sends the caller to the owner.
	if _, err = s.eng.Instantiate(instance, schema, rootName); err != nil && s.guard(instance) != nil {
		return s.guard(instance)
	}
	return err
}

// Start begins execution of an instance's root task.
func (s *Service) Start(instance, set string, inputs registry.Objects) error {
	if err := s.guard(instance); err != nil {
		return err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return err
	}
	return inst.Start(set, inputs)
}

// Status reports the instance status and per-task snapshot.
func (s *Service) Status(instance string) (engine.InstanceStatus, []engine.TaskStatus, error) {
	if err := s.guard(instance); err != nil {
		return 0, nil, err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return 0, nil, err
	}
	rows, err := inst.Snapshot()
	return inst.Status(), rows, err
}

// Events returns the instance's event trace from sequence number since
// (exclusive).
func (s *Service) Events(instance string, since int) ([]engine.Event, error) {
	if err := s.guard(instance); err != nil {
		return nil, err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return nil, err
	}
	all := inst.Events()
	for i, e := range all {
		if e.Seq > since {
			return all[i:], nil
		}
	}
	return nil, nil
}

// WaitSettled blocks until the instance settles or the timeout passes.
// It returns the latest status and, when terminal, the result; an
// unsettled status after the timeout is not an error, so remote callers
// can poll in bounded slices (see Client.WaitSettled).
func (s *Service) WaitSettled(instance string, timeout time.Duration) (engine.InstanceStatus, engine.Result, error) {
	if err := s.guard(instance); err != nil {
		return 0, engine.Result{}, err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return 0, engine.Result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := inst.Wait(ctx)
	status := inst.Status()
	if status == engine.StatusStopped {
		// Stopped is final after an administrative Stop, but a partition
		// handoff also stops its instances — and the manager drops
		// ownership before tearing the partition down, so a waiter that
		// was already in flight must be redirected to the new owner
		// rather than told the handoff was a terminal outcome.
		if gerr := s.guard(instance); gerr != nil {
			return 0, engine.Result{}, gerr
		}
	}
	switch {
	case err == nil:
		return status, res, nil
	case errors.Is(err, engine.ErrStalled), errors.Is(err, engine.ErrStopped), errors.Is(err, context.DeadlineExceeded):
		return status, engine.Result{}, nil
	default:
		return status, engine.Result{}, err
	}
}

// Settled reports whether a status is final for waiting purposes.
func Settled(s engine.InstanceStatus) bool {
	switch s {
	case engine.StatusCompleted, engine.StatusAborted, engine.StatusFailed, engine.StatusStalled, engine.StatusStopped:
		return true
	default:
		return false
	}
}

// AbortTask force-aborts a task of a running instance.
func (s *Service) AbortTask(instance, path, outcome string) error {
	if err := s.guard(instance); err != nil {
		return err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return err
	}
	return inst.AbortTask(path, outcome)
}

// Reconfigure applies a batch of reconfiguration operations atomically.
func (s *Service) Reconfigure(instance string, ops ...engine.Op) error {
	if err := s.guard(instance); err != nil {
		return err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return err
	}
	return inst.Reconfigure(ops...)
}

// Stop halts an instance's controller (state remains recoverable).
func (s *Service) Stop(instance string) error {
	if err := s.guard(instance); err != nil {
		return err
	}
	inst, err := s.eng.Instance(instance)
	if err != nil {
		return err
	}
	inst.Stop()
	return nil
}

// Instances lists live instance IDs.
func (s *Service) Instances() []string { return s.eng.Instances() }

// Recover rebuilds a persisted instance after a restart.
func (s *Service) Recover(instance string) error {
	if err := s.guard(instance); err != nil {
		return err
	}
	_, err := s.eng.Recover(instance, func(name string, src []byte) (*core.Schema, error) {
		return compileSource(name, string(src))
	})
	return err
}
