package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// counters is one reading of the process-wide cost counters.
type counters struct {
	at      time.Time
	insts   int64
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters(insts int64) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		at: time.Now(), insts: insts, cpu: cpuTime(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// slice is the work and cost between two readings.
type slice struct {
	insts   int64
	secs    float64
	cpuMs   float64
	mallocs float64
	bytes   float64
}

func between(a, b counters) slice {
	return slice{
		insts:   b.insts - a.insts,
		secs:    b.at.Sub(a.at).Seconds(),
		cpuMs:   float64(b.cpu-a.cpu) / float64(time.Millisecond),
		mallocs: float64(b.mallocs - a.mallocs),
		bytes:   float64(b.bytes - a.bytes),
	}
}

// slicesPerWindow is how many equal slices a measured window is cut
// into. Throughput is reported as the median of the per-slice rates,
// which a single stall (a GC cycle, a slow fsync burst on a shared disk)
// cannot move.
const slicesPerWindow = 10

// sampler reads the counters at every slice boundary of a window.
type sampler struct {
	done     *atomic.Int64
	readings []counters
	stop     chan struct{}
	wg       sync.WaitGroup
}

func startSampler(done *atomic.Int64, window time.Duration) *sampler {
	s := &sampler{done: done, stop: make(chan struct{})}
	s.readings = append(s.readings, readCounters(done.Load()))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(window / slicesPerWindow)
		defer tick.Stop()
		for i := 1; i < slicesPerWindow; i++ {
			select {
			case <-tick.C:
				s.readings = append(s.readings, readCounters(s.done.Load()))
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish takes the closing reading and returns the slices.
func (s *sampler) finish() []slice {
	close(s.stop)
	s.wg.Wait()
	s.readings = append(s.readings, readCounters(s.done.Load()))
	out := make([]slice, 0, len(s.readings)-1)
	for i := 1; i < len(s.readings); i++ {
		out = append(out, between(s.readings[i-1], s.readings[i]))
	}
	return out
}

// quantile returns the p-quantile of sorted values (nearest rank).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// pooled is the window's total of a cost divided by its instances.
// Allocation counts have no stalls to be robust against, and a slice of
// a slow workload holds too few instances to carry the deck's mix.
func pooled(slices []slice, f func(slice) float64) float64 {
	var cost, insts float64
	for _, s := range slices {
		cost += f(s)
		insts += float64(s.insts)
	}
	return ratio(cost, insts)
}

// throughput is the median of the completion rates of the slices that
// completed work.
func throughput(slices []slice) float64 {
	var v []float64
	for _, s := range slices {
		if s.insts > 0 && s.secs > 0 {
			v = append(v, float64(s.insts)/s.secs)
		}
	}
	return median(v)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
