package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedLoopCompletesExactlyTotal checks that every shape of the
// loop runs exactly total runs, whether workers or runs outnumber the
// other.
func TestClosedLoopCompletesExactlyTotal(t *testing.T) {
	for _, c := range []struct{ workers, total int }{
		{1, 1}, {1, 7}, {3, 10}, {8, 3}, {4, 100}, {16, 16},
	} {
		t.Run(fmt.Sprintf("workers=%d/total=%d", c.workers, c.total), func(t *testing.T) {
			var calls atomic.Int64
			completed, elapsed, err := closedLoop(c.workers, c.total, func() error {
				calls.Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if completed != c.total || calls.Load() != int64(c.total) {
				t.Fatalf("completed %d, runOne called %d times; want %d", completed, calls.Load(), c.total)
			}
			if elapsed <= 0 {
				t.Fatalf("elapsed = %v", elapsed)
			}
		})
	}
}

// TestClosedLoopStopsClaimingAfterError fails the first run and holds
// every other run until well after the failure: no worker may claim a
// run once the loop has failed, so at most one run per worker starts,
// instead of the rest of total.
func TestClosedLoopStopsClaimingAfterError(t *testing.T) {
	const workers, total = 4, 100
	boom := errors.New("boom")
	var calls atomic.Int64
	hold := make(chan struct{})
	completed, _, err := closedLoop(workers, total, func() error {
		if calls.Add(1) == 1 {
			time.AfterFunc(50*time.Millisecond, func() { close(hold) })
			return boom
		}
		<-hold
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	n := calls.Load()
	if n > workers {
		t.Fatalf("runOne called %d times after the first run failed; want <= %d (one in flight per worker)", n, workers)
	}
	if completed != int(n)-1 {
		t.Fatalf("completed %d of %d calls; want every call but the failed one", completed, n)
	}
}

// TestClosedLoopRejectsNonPositive checks that a loop with no workers
// or no runs is an error and never calls runOne.
func TestClosedLoopRejectsNonPositive(t *testing.T) {
	for _, c := range []struct{ workers, total int }{{0, 5}, {5, 0}, {-1, 5}, {5, -1}, {0, 0}} {
		called := false
		completed, _, err := closedLoop(c.workers, c.total, func() error {
			called = true
			return nil
		})
		if err == nil || completed != 0 || called {
			t.Fatalf("closedLoop(%d, %d) = %d, %v (runOne called: %v); want an error and no runs",
				c.workers, c.total, completed, err, called)
		}
	}
}
