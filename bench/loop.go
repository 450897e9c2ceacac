package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
)

// instanceTimeout bounds one instance; one that exceeds it is failed.
const instanceTimeout = 10 * time.Second

// tally is what a closed loop observed.
type tally struct {
	latMs     []float64
	attempted int
	failed    int
	wantExecs int64
	// wantRemote is how many of them the oracle expects dispatched to an
	// executor.
	wantRemote int64
	firstErr   error
}

func (t *tally) merge(o tally) {
	t.latMs = append(t.latMs, o.latMs...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wantExecs += o.wantExecs
	t.wantRemote += o.wantRemote
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// looper drives instances through one world.
type looper struct {
	rc   *runCtx
	w    *world
	seq  []int
	done atomic.Int64
}

func newLooper(rc *runCtx, w *world) *looper {
	return &looper{rc: rc, w: w, seq: make([]int, rc.wl.clients)}
}

// one runs a single instance to its terminal outcome and verifies it
// against the oracle. The latency is Instantiate through Wait.
func (l *looper) one(client int, sp spec) (time.Duration, error) {
	l.seq[client]++
	id := fmt.Sprintf("c%d-%07d", client, l.seq[client])
	sh := l.rc.wl.shapes[sp.shape]
	seed := payload(l.rc.filler, sp.payload, uint64(client)<<32|uint64(l.seq[client]))
	tr := l.rc.tr

	var it *instTrace
	if tr != nil {
		it = tr.begin(id)
	}
	t0 := time.Now()
	inst, err := l.w.eng.Instantiate(id, l.w.schemas[sp.shape], "")
	if err != nil {
		return 0, err
	}
	defer inst.Stop()
	t1 := time.Now()
	if err := inst.Start("main", registry.Objects{"seed": {Class: "Data", Data: seed}}); err != nil {
		return 0, err
	}
	t2 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), instanceTimeout)
	res, err := inst.Wait(ctx)
	cancel()
	t3 := time.Now()
	if tr != nil {
		tr.spanAt(it, kInstantiate, "", t0, t1)
		tr.spanAt(it, kStart, "", t1, t2)
		tr.spanAt(it, kWait, "", t2, t3)
		tr.finish(it, t0, t3)
	}
	if err != nil {
		return 0, fmt.Errorf("%s (%s): %w", id, sh.name, err)
	}
	if res.State != engine.RunCompleted || res.Output != "done" {
		return 0, fmt.Errorf("%s (%s): state %v outcome %q, want completed/done", id, sh.name, res.State, res.Output)
	}
	want := l.rc.oracle[sp.shape]
	if got, _ := res.Objects["out"].Data.(string); got != seed {
		return 0, fmt.Errorf("%s (%s): output payload of %d bytes differs from the oracle's %d", id, sh.name, len(got), len(seed))
	}
	if it != nil && it.starts.Load() != int64(want.starts) {
		return 0, fmt.Errorf("%s (%s): %d task starts, oracle says %d", id, sh.name, it.starts.Load(), want.starts)
	}
	return t3.Sub(t0), nil
}

// run is the closed loop: every client runs instances back to back
// while more(client, k) is true for its k-th instance. Each client deals
// itself a freshly shuffled deck per pass from its own seeded source, so
// the clients never settle into one repeating interleaving.
func (l *looper) run(more func(client, k int) bool) tally {
	n := len(l.seq)
	parts := make([]tally, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &parts[c]
			rng := rand.New(rand.NewSource(l.rc.seed<<8 | int64(c)))
			deck := append([]spec(nil), l.rc.deck...)
			for k := 0; more(c, k); k++ {
				if k%deckSize == 0 {
					rng.Shuffle(deckSize, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				}
				sp := deck[k%deckSize]
				t.attempted++
				t.wantExecs += int64(l.rc.oracle[sp.shape].execs)
				t.wantRemote += int64(l.rc.oracle[sp.shape].remote)
				d, err := l.one(c, sp)
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				t.latMs = append(t.latMs, float64(d)/float64(time.Millisecond))
				l.done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	var total tally
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// warm runs the workload's fixed warm-up count.
func (l *looper) warm() error {
	per := l.rc.wl.warmup / len(l.seq)
	t := l.run(func(_, k int) bool { return k < per })
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d instances failed: %w", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// window measures for d: sliced cost counters plus the pooled tally.
// When wholeDecks is set every client stops only at the end of a deck
// pass, so the instance mix — and every per-instance count — repeats
// exactly for one seed.
func (l *looper) window(d time.Duration, wholeDecks bool) (tally, []slice) {
	before := l.w.execs.Load()
	s := startSampler(&l.done, d)
	deadline := time.Now().Add(d)
	t := l.run(func(_, k int) bool {
		if wholeDecks && k%deckSize != 0 {
			return true
		}
		return time.Now().Before(deadline)
	})
	slices := s.finish()
	if got := l.w.execs.Load() - before; t.failed == 0 && got != t.wantExecs {
		t.failed++
		t.firstErr = errors.Join(t.firstErr, fmt.Errorf("%d task implementation runs, oracle says %d", got, t.wantExecs))
	}
	return t, slices
}
