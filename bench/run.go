package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints. Ungated is
// printed on a line of its own before it ("ungated {...}"), because the
// last line carries exactly the metrics BENCHMARK.json names.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Ungated   map[string]metric `json:"ungated,omitempty"`
}

// endToEnd names the end-to-end metrics BENCHMARK.json bounds, the same
// on every workload, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_inst_per_s", "inst/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"allocs_per_inst", "count"},
}

// ungated is the end-to-end metric every untraced run also measures,
// -repeat records and -compare shows, but BENCHMARK.json does not
// bound: CPU time per instance follows the shared host's phases (27 %
// between two sets of unchanged code half an hour apart, see README),
// which only a paired comparison cancels.
var ungated = []struct{ name, unit string }{
	{"cpu_ms_per_inst", "ms"},
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow directory creation or dial cannot move it.
const setupRepeats = 7

// subject is a workload set up and ready to be measured.
type subject interface {
	// measure runs for about d and returns what it observed; wholeDecks
	// makes the instance mix exact (traced runs).
	measure(d time.Duration, wholeDecks bool) (tally, []slice)
	close()
}

type loopSubject struct {
	w *world
	l *looper
}

func (s loopSubject) measure(d time.Duration, wholeDecks bool) (tally, []slice) {
	return s.l.window(d, wholeDecks)
}
func (s loopSubject) close() { s.w.close() }

type recoverSubject struct{ r *recoverer }

func (recoverSubject) close() {}

// measure runs recovery cycles until d has passed. Each cycle is one
// slice and one latency sample; only the timed restart is costed.
func (s recoverSubject) measure(d time.Duration, _ bool) (tally, []slice) {
	var t tally
	var slices []slice
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		res := s.r.cycle()
		t.attempted += deckSize
		t.failed += res.failed
		if res.err != nil && t.firstErr == nil {
			t.firstErr = res.err
		}
		if res.failed == 0 {
			slices = append(slices, res.cost)
			t.latMs = append(t.latMs, res.cost.secs*1e3)
			s.r.syncs += res.syncs
		}
	}
	return t, slices
}

// setUp assembles the workload and runs its fixed warm-up.
func (rc *runCtx) setUp() (subject, error) {
	if rc.wl.build == nil {
		r, err := newRecoverer(rc)
		if err != nil {
			return nil, err
		}
		for i := 0; i < rc.wl.warmup; i++ {
			if res := r.cycle(); res.failed > 0 {
				return nil, fmt.Errorf("warm-up cycle: %w", res.err)
			}
		}
		return recoverSubject{r}, nil
	}
	w, err := rc.wl.build(rc)
	if err != nil {
		return nil, err
	}
	l := newLooper(rc, w)
	if err := l.warm(); err != nil {
		w.close()
		return nil, err
	}
	return loopSubject{w: w, l: l}, nil
}

func newRunCtx(wl *workload, dir string, seed int64, tr *tracer) *runCtx {
	return &runCtx{
		wl: wl, dir: dir, seed: seed, tr: tr,
		deck:    makeDeck(seed, wl.counts),
		filler:  makeFiller(seed),
		compile: compiler(tr),
	}
}

// endToEndMetrics turns one untraced window into the bounded metrics
// and the ungated one.
func endToEndMetrics(setups []float64, t tally, slices []slice) (bounded, free map[string]metric) {
	lat := sortedCopy(t.latMs)
	values := []float64{
		median(setups),
		throughput(slices),
		quantile(lat, 0.50),
		quantile(lat, 0.90),
		pooled(slices, func(s slice) float64 { return s.mallocs }),
	}
	bounded = make(map[string]metric, len(endToEnd))
	for i, m := range endToEnd {
		bounded[m.name] = metric{Value: values[i], Unit: m.unit}
	}
	cpu := pooled(slices, func(s slice) float64 { return s.cpuMs })
	return bounded, map[string]metric{ungated[0].name: {Value: cpu, Unit: ungated[0].unit}}
}

// runUntraced sets the workload up repeats times, measures one window
// on the last set-up and reports the end-to-end metrics.
func runUntraced(wl *workload, dir string, seed int64, window time.Duration, repeats int, log io.Writer) (result, error) {
	rc := newRunCtx(wl, dir, seed, nil)
	var setups []float64
	var sub subject
	for i := 0; i < repeats; i++ {
		if sub != nil {
			sub.close()
		}
		start := time.Now()
		var err error
		if sub, err = rc.setUp(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sub.close()
	t, slices := sub.measure(window, false)
	if t.firstErr != nil {
		fmt.Fprintf(log, "first failure: %v\n", t.firstErr)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	res.Metrics, res.Ungated = endToEndMetrics(setups, t, slices)
	fmt.Fprintf(log, "%s seed=%d window=%s clients=%d: ops_attempted=%d ops_failed=%d latency samples=%d slices=%d\n",
		wl.name, seed, window, wl.clients, t.attempted, t.failed, len(t.latMs), len(slices))
	for _, m := range endToEnd {
		fmt.Fprintf(log, "  %-24s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	for _, m := range ungated {
		fmt.Fprintf(log, "  %-24s %14.4f %s (not gated)\n", m.name, res.Ungated[m.name].Value, m.unit)
	}
	return res, nil
}

// scratchDir makes the directory durable stores and traces live in: on
// the working filesystem, inside the checkout, never tmpfs.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
