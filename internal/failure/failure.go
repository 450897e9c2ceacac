// Package failure provides deterministic fault injection for the
// experiments of Section 3: "tasks eventually receive their inputs and
// notifications despite finite number of intervening processor crashes
// and temporary network related failures".
//
// Three injector families are provided:
//
//   - network faults: orb dialers whose connections drop, delay or refuse
//     with configured probabilities (temporary failures, healed by the
//     client's retry machinery);
//   - partitions: a switchable dialer that refuses all connections while
//     "partitioned" and heals on demand;
//   - crash scheduling: helpers that stop an engine after a trigger, used
//     by the crash-recovery experiments.
//
// All randomness is seeded, so failing runs replay exactly.
package failure

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orb"
	"repro/internal/timers"
)

// ErrInjected marks failures produced by an injector, so tests can
// distinguish them from genuine bugs.
var ErrInjected = errors.New("injected fault")

// NetConfig tunes a lossy dialer.
type NetConfig struct {
	// RefuseProb is the probability that a dial attempt fails outright.
	RefuseProb float64
	// DropAfter, when positive, closes each connection after a random
	// number of frames in [1, DropAfter] (mid-call drops).
	DropAfter int
	// DupProb is the probability that a connection duplicates its first
	// request in flight: the servant executes it twice, and the client
	// drops the second reply by request ID. Exercises the callers'
	// idempotence/dedup paths.
	DupProb float64
	// ReorderProb is the probability that a dial is held back by a
	// random delay in (0, ReorderMax], letting concurrently issued
	// calls overtake it (delivery reordering).
	ReorderProb float64
	// ReorderMax bounds the reordering delay; zero with ReorderProb set
	// defaults to 20ms.
	ReorderMax time.Duration
	// Delay adds fixed latency before each dial succeeds.
	Delay time.Duration
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Clock paces the injected Delay; nil selects timers.WallClock, a
	// timers.FakeClock drives delay faults without real latency.
	Clock timers.Clock
}

// Lossy returns an orb dialer that injects the configured faults.
// The returned stats counter reports refused dials.
func Lossy(cfg NetConfig) (orb.Dialer, *Stats) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))
	stats := &Stats{}
	clk := cfg.Clock
	if clk == nil {
		clk = timers.Clock(timers.WallClock{})
	}
	return func(addr string) (net.Conn, error) {
		mu.Lock()
		refuse := rng.Float64() < cfg.RefuseProb
		var dropAt int
		if cfg.DropAfter > 0 {
			dropAt = 1 + rng.Intn(cfg.DropAfter)
		}
		dup := cfg.DupProb > 0 && rng.Float64() < cfg.DupProb
		var reorder time.Duration
		if cfg.ReorderProb > 0 && rng.Float64() < cfg.ReorderProb {
			limit := cfg.ReorderMax
			if limit <= 0 {
				limit = 20 * time.Millisecond
			}
			reorder = time.Duration(1 + rng.Int63n(int64(limit)))
		}
		mu.Unlock()
		if delay := cfg.Delay + reorder; delay > 0 {
			if reorder > 0 {
				stats.reordered.Add(1)
			}
			<-clk.Wake(clk.Now().Add(delay))
		}
		if refuse {
			stats.refused.Add(1)
			return nil, fmt.Errorf("dial %s: %w: connection refused", addr, ErrInjected)
		}
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		if dup {
			conn = &dupConn{Conn: conn, stats: stats, pending: true}
		}
		if dropAt > 0 {
			return &droppingConn{Conn: conn, remaining: dropAt, stats: stats}, nil
		}
		return conn, nil
	}, stats
}

// Stats counts injected faults.
type Stats struct {
	refused, dropped, duplicated, reordered atomic.Int64
}

// Refused reports injected dial refusals.
func (s *Stats) Refused() int { return int(s.refused.Load()) }

// Dropped reports injected mid-connection drops.
func (s *Stats) Dropped() int { return int(s.dropped.Load()) }

// Duplicated reports injected request duplications.
func (s *Stats) Duplicated() int { return int(s.duplicated.Load()) }

// Reordered reports injected delivery reorderings.
func (s *Stats) Reordered() int { return int(s.reordered.Load()) }

// droppingConn closes itself after a budget of writes.
type droppingConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int
	stats     *Stats
}

// Write implements net.Conn, failing once the budget is exhausted.
func (c *droppingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.remaining--
	kill := c.remaining < 0
	c.mu.Unlock()
	if kill {
		c.stats.dropped.Add(1)
		_ = c.Conn.Close()
		return 0, fmt.Errorf("write: %w: connection dropped", ErrInjected)
	}
	return c.Conn.Write(p)
}

// Partition is a switchable network partition: while active, all dials
// through its Dialer fail; Heal restores connectivity (the paper's
// "temporary network related failures ... a network partition that is not
// healing" is the non-healed case).
type Partition struct {
	mu     sync.Mutex
	active bool
}

// NewPartition returns a healed partition.
func NewPartition() *Partition { return &Partition{} }

// Break activates the partition.
func (p *Partition) Break() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active = true
}

// Heal deactivates the partition.
func (p *Partition) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active = false
}

// Active reports whether the partition is in force.
func (p *Partition) Active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Dialer returns an orb dialer subject to the partition.
func (p *Partition) Dialer() orb.Dialer {
	return func(addr string) (net.Conn, error) {
		if p.Active() {
			return nil, fmt.Errorf("dial %s: %w: network partition", addr, ErrInjected)
		}
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
}
