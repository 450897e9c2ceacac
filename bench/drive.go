package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/store"
	"repro/internal/txn"
)

// This file drives single layers directly through their public API,
// with op shapes recorded from the traced run, to price what the seams
// cannot see from outside: the persist and txn layers' own time per
// commit, and the orb's round trip and in-flight concurrency.

// seamNs is the time a side tracer saw inside its store seams.
func seamNs(tr *tracer) int64 {
	var ns int64
	for _, k := range []kind{kStoreWrite, kStoreRead, kStoreList, kLogWrite, kLogRead} {
		ns += tr.durNs[k].Load()
	}
	return ns
}

// Direct-drive sizes at the full budget; shorter runs scale them down.
const (
	fullBudget          = 20 * time.Second
	persistDriveBatches = 20000
	txnDriveCommits     = 20000
	orbEchoCalls        = 2000
	orbSleepCalls       = 200
)

// scaled sizes a direct drive to the run's budget, never below floor.
func scaled(n int, budget time.Duration, floor int) int {
	return max(floor, int(float64(n)*min(1, float64(budget)/float64(fullBudget))))
}

// drivePersist replays the recorded state batches through
// Registry.NewBatch().Set…Commit() over a seam-wrapped memory store and
// returns the mean commit time and the part of it spent outside the
// store, both in microseconds. Values are opaque bytes of the recorded
// sizes; the engine's own run-state encoding is engine self time.
func drivePersist(shapes [][]opShape, batches int) (commitUs, selfUs float64) {
	if len(shapes) == 0 {
		return 0, 0
	}
	side := newTracer()
	mem := store.NewMemStore()
	reg := persist.NewRegistry(wrapStore(mem, side, false), txn.NewManager(wrapStore(mem, side, true)), nil)
	filler := make([]byte, payloadSizes[deckSize-1]*2)
	var total time.Duration
	n := 0
	for n < batches {
		for _, shape := range shapes {
			start := time.Now()
			b := reg.NewBatch()
			for _, op := range shape {
				if op.delete {
					b.Delete(store.ID(op.id))
				} else if err := b.Set(store.ID(op.id), filler[:min(op.size, len(filler))]); err != nil {
					return 0, 0
				}
			}
			if err := b.Commit(); err != nil {
				return 0, 0
			}
			total += time.Since(start)
			n++
		}
	}
	commitUs = float64(total) / 1e3 / float64(n)
	return commitUs, commitUs - float64(seamNs(side))/1e3/float64(n)
}

// logOnly is a two-phase-commit resource that logs intentions and does
// nothing else.
type logOnly struct {
	ids  []store.ID
	data []byte
}

func (r *logOnly) Prepare(tx *txn.Txn) error {
	for _, id := range r.ids {
		if err := tx.LogIntention(id, r.data); err != nil {
			return err
		}
	}
	return nil
}
func (r *logOnly) Commit(*txn.Txn) error { return nil }
func (r *logOnly) Abort(*txn.Txn) error  { return nil }

// driveTxn prices one Begin / LogIntention×n / Commit with a no-op
// resource over a seam-wrapped memory log: the mean time per commit
// spent outside the log store, in microseconds. n and the intention
// size are the run's means.
func driveTxn(opsPerCommit, bytesPerOp float64, commits int) float64 {
	if opsPerCommit == 0 {
		return 0
	}
	side := newTracer()
	mgr := txn.NewManager(wrapStore(store.NewMemStore(), side, true))
	res := &logOnly{data: make([]byte, int(bytesPerOp))}
	for i := 0; i < int(math.Round(opsPerCommit)); i++ {
		res.ids = append(res.ids, store.ID(fmt.Sprintf("inst/drive/run/t%d", i)))
	}
	start := time.Now()
	for i := 0; i < commits; i++ {
		tx := mgr.Begin()
		if err := tx.Enlist(res); err != nil {
			return 0
		}
		if err := tx.Commit(); err != nil {
			return 0
		}
	}
	return (float64(time.Since(start)) - float64(seamNs(side))) / 1e3 / float64(commits)
}

// orbDrive is the orb priced alone.
type orbDrive struct {
	rttUs, rttC4Us, speedup float64
}

// driveOrb calls an echo servant over loopback TCP with the run's
// median payload: round trip with one caller and with four callers on
// one Client, and how much four callers gain over one against a servant
// that sleeps serviceTime (≈1.0 while Invoke holds the client mutex
// across the round trip).
func driveOrb(payload []byte, echoCalls, sleepCalls int) (d orbDrive, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	srv := orb.NewServerOn(ln)
	defer srv.Close()
	sv := orb.NewServant()
	orb.Method(sv, "echo", func(b []byte) ([]byte, error) { return b, nil })
	orb.Method(sv, "sleep", func(b []byte) ([]byte, error) {
		block(serviceTime)
		return b, nil
	})
	srv.Register("drive", sv)
	client := orb.Dial(srv.Addr(), orb.ClientConfig{})
	defer client.Close()

	// calls issues total calls from callers goroutines and returns the
	// median per-call latency in microseconds and the wall time.
	calls := func(method string, callers, total int) (float64, time.Duration, error) {
		lat := make([][]float64, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < total/callers; i++ {
					t := time.Now()
					if _, err := orb.Call[[]byte, []byte](client, "drive", method, payload); err != nil {
						errs[c] = err
						return
					}
					lat[c] = append(lat[c], float64(time.Since(t))/1e3)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		var all []float64
		for c := range lat {
			if errs[c] != nil {
				return 0, 0, errs[c]
			}
			all = append(all, lat[c]...)
		}
		return median(all), wall, nil
	}
	if _, _, err = calls("echo", 1, echoCalls/10); err != nil { // dial, gob type exchange
		return d, err
	}
	if d.rttUs, _, err = calls("echo", 1, echoCalls); err != nil {
		return d, err
	}
	if d.rttC4Us, _, err = calls("echo", 4, echoCalls); err != nil {
		return d, err
	}
	_, one, err := calls("sleep", 1, sleepCalls)
	if err != nil {
		return d, err
	}
	_, four, err := calls("sleep", 4, sleepCalls)
	if err != nil {
		return d, err
	}
	d.speedup = float64(one) / float64(four)
	return d, nil
}

// fsyncCalibUs is the median of 50 4-KiB write+fsync pairs in dir, so
// durable numbers can be read against the disk of the day.
func fsyncCalibUs(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync-calib"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us)
}
