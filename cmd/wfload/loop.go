package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/registry"
	"repro/internal/timers"
	"repro/internal/workload"
)

// wall is the load generator's clock: it measures real elapsed time by
// definition, so it reads the wall clock explicitly.
var wall = timers.WallClock{}

// closedLoop runs workers goroutines that each call runOne back to back
// until total runs have been claimed. The first error stops every
// worker from claiming another run; runs already in flight finish.
// It returns how many runs completed, the wall-clock elapsed and the
// first error.
func closedLoop(workers, total int, runOne func() error) (completed int, elapsed time.Duration, err error) {
	if workers <= 0 || total <= 0 {
		return 0, 0, errors.New("closed loop: workers and total must be positive")
	}
	var (
		mu       sync.Mutex
		claimed  int
		firstErr error
		wg       sync.WaitGroup
	)
	// claim hands out the next run unless the loop is exhausted or has
	// failed; failures are recorded under the same lock, so no claim
	// follows a recorded error.
	claim := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || claimed == total {
			return false
		}
		claimed++
		return true
	}
	begin := wall.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for claim() {
				runErr := runOne()
				mu.Lock()
				if runErr == nil {
					completed++
				} else if firstErr == nil {
					firstErr = runErr
				}
				mu.Unlock()
				if runErr != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return completed, wall.Now().Sub(begin), firstErr
}

// latencyRecorder collects remote-activation latencies; wrap decorates
// a RemoteInvoker with timing.
type latencyRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

// wrap times every dispatch through inv.
func (l *latencyRecorder) wrap(inv engine.RemoteInvoker) engine.RemoteInvoker {
	return func(req engine.RemoteRequest) (registry.Result, error) {
		begin := wall.Now()
		res, err := inv(req)
		d := wall.Now().Sub(begin)
		l.mu.Lock()
		l.durs = append(l.durs, d)
		l.mu.Unlock()
		return res, err
	}
}

// String renders the activation count and latency percentiles.
func (l *latencyRecorder) String() string {
	l.mu.Lock()
	durs := append([]time.Duration(nil), l.durs...)
	l.mu.Unlock()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) time.Duration {
		if len(durs) == 0 {
			return 0
		}
		return durs[int(p*float64(len(durs)-1))].Round(time.Microsecond)
	}
	return fmt.Sprintf("%d activations; p50=%v p90=%v p99=%v", len(durs), pct(0.50), pct(0.90), pct(0.99))
}

// runOneSharded runs one complete instance of schemaName through a
// routing client: instantiate, start, wait, assert completion.
func runOneSharded(sc *execsvc.ShardedClient, name, schemaName string, waitFor time.Duration) error {
	if err := sc.Instantiate(name, schemaName, ""); err != nil {
		return fmt.Errorf("instantiate %s: %w", name, err)
	}
	if err := sc.Start(name, "main", workload.Seed()); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	status, res, err := sc.WaitSettled(name, waitFor)
	if err != nil {
		return fmt.Errorf("wait %s: %w", name, err)
	}
	if status != engine.StatusCompleted || res.Output != "done" {
		return fmt.Errorf("instance %s: status %v outcome %q", name, status, res.Output)
	}
	return nil
}
