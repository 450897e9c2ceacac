package failure_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/orb"
)

// TestDupDeliversRequestTwice: with duplication armed, the servant
// executes a connection's first request twice while the client still
// gets exactly one correct reply per call — the shape an at-least-once
// delivery layer hands to its callers, which is what application-level
// dedup must absorb.
func TestDupDeliversRequestTwice(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var hits atomic.Int64
	sv := orb.NewServant()
	orb.Method(sv, "echo", func(req string) (string, error) {
		hits.Add(1)
		return "echo:" + req, nil
	})
	srv.Register("svc", sv)

	d, stats := failure.Lossy(failure.NetConfig{DupProb: 1, Seed: 5})

	// One client, hence one connection, per call: each call is its
	// connection's first request and gets its own duplicated delivery,
	// so counts are exact.
	const calls = 5
	for i := 0; i < calls; i++ {
		cl := orb.Dial(srv.Addr(), orb.ClientConfig{Dialer: d, Retries: -1})
		var reply string
		err := cl.Invoke("svc", "echo", "x", &reply)
		cl.Close()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply != "echo:x" {
			t.Fatalf("call %d reply = %q", i, reply)
		}
	}
	// The duplicate's handler may still be running when its caller has
	// moved on; Close reaps the handlers.
	srv.Close()
	if got := hits.Load(); got != 2*calls {
		t.Fatalf("servant executed %d times, want %d (each request duplicated)", got, 2*calls)
	}
	if got := stats.Duplicated(); got != calls {
		t.Fatalf("stats.Duplicated() = %d, want %d", got, calls)
	}
}

// TestDupReplyDroppedByID: the duplicated request frame carries the
// original's ID, so the servant's second reply matches no pending call
// and is dropped — the connection stays up with no retry, and no later
// call ever sees a stale reply.
func TestDupReplyDroppedByID(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var hits atomic.Int64
	sv := orb.NewServant()
	orb.Method(sv, "id", func(req int) (int, error) {
		hits.Add(1)
		return req, nil
	})
	srv.Register("svc", sv)

	d, stats := failure.Lossy(failure.NetConfig{DupProb: 1, Seed: 5})
	cl := orb.Dial(srv.Addr(), orb.ClientConfig{Dialer: d, Retries: -1})
	defer cl.Close()

	const calls = 8
	for i := 0; i < calls; i++ {
		var reply int
		if err := cl.Invoke("svc", "id", i, &reply); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if reply != i {
			t.Fatalf("call %d got stale reply %d", i, reply)
		}
	}
	if got := stats.Duplicated(); got != 1 {
		t.Fatalf("stats.Duplicated() = %d, want 1 (the connection's first request)", got)
	}
	srv.Close() // reap the duplicate's handler, which no caller waited for
	if got := hits.Load(); got != calls+1 {
		t.Fatalf("servant executed %d times, want %d", got, calls+1)
	}
}

// TestReorderDelaysDials: reordering jitter lets concurrently dialling
// clients overtake each other but never corrupts any of their calls.
func TestReorderDelaysDials(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sv := orb.NewServant()
	orb.Method(sv, "id", func(req int) (int, error) { return req, nil })
	srv.Register("svc", sv)

	d, stats := failure.Lossy(failure.NetConfig{ReorderProb: 1, ReorderMax: 5 * time.Millisecond, Seed: 3})

	var wg sync.WaitGroup
	errs := make([]error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := orb.Dial(srv.Addr(), orb.ClientConfig{Dialer: d})
			defer cl.Close()
			var reply int
			if err := cl.Invoke("svc", "id", i, &reply); err != nil {
				errs[i] = err
			} else if reply != i {
				t.Errorf("call %d got %d", i, reply)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if stats.Reordered() == 0 {
		t.Fatal("no reordering recorded")
	}
}
