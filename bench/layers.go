package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// perLayer names the per-layer metrics in report order. Per-instance
// and per-call figures are normalised over whole deck passes, so the
// count-type ones repeat exactly for one seed (the group-commit ratios
// store.batches/fsyncs/ops_per_fsync and txn.commits depend on how
// completions coalesce and do not).
var perLayer = []struct{ name, unit string }{
	{"script.compile_ms", "ms"},
	{"script.recover_compile_us_per_inst", "us"},
	{"engine.instantiate_us_per_inst", "us"},
	{"engine.start_us_per_inst", "us"},
	{"engine.wait_us_per_inst", "us"},
	{"engine.recover_us_per_inst", "us"},
	{"engine.self_us_per_inst", "us"},
	{"engine.outside_calls_pct", "%"},
	{"engine.events_per_inst", "count"},
	{"engine.task_starts_per_inst", "count"},
	{"engine.latency_p99_ms", "ms"},
	{"registry.binding_us_per_inst", "us"},
	{"persist.batch_commit_us", "us"},
	{"persist.self_us_per_batch", "us"},
	{"persist.recover_ms", "ms"},
	{"txn.log_writes_per_inst", "count"},
	{"txn.log_deletes_per_inst", "count"},
	{"txn.log_bytes_per_inst", "count"},
	{"txn.commits_per_inst", "count"},
	{"txn.log_us_per_inst", "us"},
	{"txn.self_us_per_commit", "us"},
	{"store.batches_per_inst", "count"},
	{"store.ops_per_inst", "count"},
	{"store.bytes_per_inst", "count"},
	{"store.write_us_per_inst", "us"},
	{"store.reads_per_inst", "count"},
	{"store.read_us_per_inst", "us"},
	{"store.fsyncs_per_inst", "count"},
	{"store.ops_per_fsync", "count"},
	{"store.write_amp", "ratio"},
	{"store.open_replay_ms", "ms"},
	{"store.list_us_per_inst", "us"},
	{"store.fsync_calib_us", "us"},
	{"orb.dials_per_inst", "count"},
	{"orb.conn_writes_per_call", "count"},
	{"orb.wire_bytes_out_per_call", "count"},
	{"orb.wire_bytes_in_per_call", "count"},
	{"orb.echo_rtt_us", "us"},
	{"orb.echo_rtt_c4_us", "us"},
	{"orb.concurrent_speedup", "ratio"},
	{"taskexec.calls_per_inst", "count"},
	{"taskexec.invoke_us_per_call", "us"},
	{"taskexec.executor_us_per_call", "us"},
	{"taskexec.overhead_us_per_call", "us"},
	{"taskexec.failovers", "count"},
	{"taskexec.endpoint_skew", "ratio"},
	{"proc.cpu_ms_per_inst", "ms"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.alloc_bytes_per_inst", "B"},
	{"proc.heap_inuse_mb_end", "MB"},
	{"proc.goroutines_peak", "count"},
	{"trace.overhead_pct", "%"},
}

// Shares of a traced run's time budget: an untraced window first, for
// the tracing overhead, then the traced window; what is left pays for
// set-up and the direct drives.
const (
	untracedShare = 0.25
	tracedShare   = 0.50
)

// goroutinePeak samples runtime.NumGoroutine until stopped.
func goroutinePeak() (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := runtime.NumGoroutine()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			case <-done:
				return
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}

// runTraced measures the tracing overhead against an untraced window,
// then repeats the workload with every seam installed and attributes
// time and work to each layer.
func runTraced(wl *workload, dir string, seed int64, budget time.Duration, log io.Writer) (result, error) {
	share := func(f float64) time.Duration { return time.Duration(float64(budget) * f) }

	plain, err := newRunCtx(wl, dir, seed, nil).setUp()
	if err != nil {
		return result{}, fmt.Errorf("untraced set-up: %w", err)
	}
	ut, uslices := plain.measure(share(untracedShare), false)
	plain.close()

	tr := newTracer()
	rc := newRunCtx(wl, dir, seed, tr)
	sub, err := rc.setUp()
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer sub.close()
	compileMs := float64(tr.durNs[kCompile].Load()) / 1e6
	if r, ok := sub.(recoverSubject); ok {
		// Warm-up cycles recompiled too; only the shapes' own compile
		// is set-up.
		compileMs = ratio(compileMs, float64(tr.calls[kCompile].Load()))
		r.r.syncs = 0
	}
	var syncs0 int64
	if ls, ok := sub.(loopSubject); ok && ls.w.wal != nil {
		syncs0 = ls.w.wal.Syncs()
	}
	tr.reset()

	stopPeak := goroutinePeak()
	before := readCounters(0)
	t, tslices := sub.measure(share(tracedShare), true)
	after := readCounters(0)
	peak := stopPeak()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	if got := tr.calls[kInvoke].Load(); t.failed == 0 && got != t.wantRemote {
		t.failed++
		t.firstErr = fmt.Errorf("%d remote dispatches, oracle says %d", got, t.wantRemote)
	}
	n := float64(t.attempted - t.failed)
	calls := float64(tr.calls[kInvoke].Load())
	var syncs float64
	m := map[string]float64{
		"script.compile_ms":              compileMs,
		"engine.instantiate_us_per_inst": tr.usPer(kInstantiate, n),
		"engine.start_us_per_inst":       tr.usPer(kStart, n),
		"engine.wait_us_per_inst":        tr.usPer(kWait, n),
		"engine.recover_us_per_inst":     tr.usPer(kRecoverMatching, n),
		"engine.self_us_per_inst":        ratio(float64(tr.selfNs)/1e3, n),
		"engine.outside_calls_pct":       100 * ratio(float64(tr.outsideNs), float64(tr.rootNs)),
		"engine.events_per_inst":         ratio(tr.count(cEvents), n),
		"engine.task_starts_per_inst":    ratio(tr.count(cStarts), n),
		"engine.latency_p99_ms":          quantile(sortedCopy(t.latMs), 0.99),
		"registry.binding_us_per_inst":   tr.usPer(kBinding, n),
		"txn.log_writes_per_inst":        ratio(tr.count(cLogWrites), n),
		"txn.log_deletes_per_inst":       ratio(tr.count(cLogDeletes), n),
		"txn.log_bytes_per_inst":         ratio(tr.count(cLogBytes), n),
		"txn.commits_per_inst":           ratio(tr.count(cLogCommits), n),
		"txn.log_us_per_inst":            tr.usPer(kLogWrite, n) + tr.usPer(kLogRead, n),
		"store.batches_per_inst":         ratio(tr.count(cStoreBatches), n),
		"store.ops_per_inst":             ratio(tr.count(cStoreOps), n),
		"store.bytes_per_inst":           ratio(tr.count(cStoreBytes), n),
		"store.write_us_per_inst":        tr.usPer(kStoreWrite, n),
		"store.reads_per_inst":           ratio(tr.count(cStoreReads), n),
		"store.read_us_per_inst":         tr.usPer(kStoreRead, n),
		"store.write_amp":                ratio(tr.count(cStoreBytes)+tr.count(cLogBytes), tr.count(cStoreBytes)),
		"store.list_us_per_inst":         tr.usPer(kStoreList, n),
		"store.fsync_calib_us":           fsyncCalibUs(dir),
		"orb.dials_per_inst":             ratio(tr.count(cDials), n),
		"orb.conn_writes_per_call":       ratio(tr.count(cConnWrites), calls),
		"orb.wire_bytes_out_per_call":    ratio(tr.count(cWireOut), calls),
		"orb.wire_bytes_in_per_call":     ratio(tr.count(cWireIn), calls),
		"taskexec.calls_per_inst":        ratio(calls, n),
		"taskexec.invoke_us_per_call":    tr.usPer(kInvoke, calls),
		"taskexec.executor_us_per_call":  tr.usPer(kExecutor, calls),
		"proc.gc_pause_ms":               float64(after.gcPause-before.gcPause) / 1e6,
		"proc.cpu_ms_per_inst":           pooled(tslices, func(s slice) float64 { return s.cpuMs }),
		"proc.alloc_bytes_per_inst":      pooled(tslices, func(s slice) float64 { return s.bytes }),
		"proc.heap_inuse_mb_end":         float64(heap.HeapInuse) / (1 << 20),
		"proc.goroutines_peak":           float64(peak),
		"trace.overhead_pct":             100 * (1 - ratio(throughput(tslices), throughput(uslices))),
	}
	m["taskexec.overhead_us_per_call"] = m["taskexec.invoke_us_per_call"] - m["taskexec.executor_us_per_call"]

	switch s := sub.(type) {
	case recoverSubject:
		cycles := float64(tr.calls[kInstance].Load())
		syncs = float64(s.r.syncs)
		m["script.recover_compile_us_per_inst"] = tr.usPer(kCompile, n)
		m["persist.recover_ms"] = tr.usPer(kPersistRecover, cycles) / 1e3
		m["store.open_replay_ms"] = tr.usPer(kOpenReplay, cycles) / 1e3
	case loopSubject:
		if s.w.wal != nil {
			syncs = float64(s.w.wal.Syncs() - syncs0)
		}
		if s.w.inv != nil {
			m["taskexec.failovers"] = float64(s.w.poolReg.Counter(obs.MTaskFailovers).Value())
			lo, hi := int64(0), int64(0)
			for i, ep := range s.w.inv.Stats() {
				if i == 0 || ep.Dispatched < lo {
					lo = ep.Dispatched
				}
				hi = max(hi, ep.Dispatched)
			}
			m["taskexec.endpoint_skew"] = ratio(float64(hi), float64(lo))
		}
	}
	m["store.fsyncs_per_inst"] = ratio(syncs, n)
	m["store.ops_per_fsync"] = ratio(tr.count(cStoreOps)+tr.count(cLogWrites)+tr.count(cLogCommits)+tr.count(cLogDeletes), syncs)

	// Direct drives, with the shapes this run recorded.
	tr.mu.Lock()
	shapes := tr.shapes
	tr.mu.Unlock()
	m["persist.batch_commit_us"], m["persist.self_us_per_batch"] = drivePersist(shapes, scaled(persistDriveBatches, budget, 500))
	commits := tr.count(cLogCommits)
	m["txn.self_us_per_commit"] = driveTxn(ratio(tr.count(cLogWrites), commits), ratio(tr.count(cLogBytes), tr.count(cLogWrites)+commits), scaled(txnDriveCommits, budget, 500))
	if calls > 0 {
		d, err := driveOrb([]byte(payload(rc.filler, payloadSizes[deckSize/2], 0)), scaled(orbEchoCalls, budget, 200), scaled(orbSleepCalls, budget, 40))
		if err != nil {
			return result{}, fmt.Errorf("orb direct drive: %w", err)
		}
		m["orb.echo_rtt_us"], m["orb.echo_rtt_c4_us"], m["orb.concurrent_speedup"] = d.rttUs, d.rttC4Us, d.speedup
	}

	failed := t.failed + ut.failed
	for _, e := range []error{ut.firstErr, t.firstErr} {
		if e != nil {
			fmt.Fprintf(log, "first failure: %v\n", e)
		}
	}
	res := result{Correct: failed == 0, Attempted: t.attempted + ut.attempted, Failed: failed, Metrics: make(map[string]metric, len(perLayer))}
	fmt.Fprintf(log, "%s seed=%d traced: %d instances in whole deck passes at %.1f inst/s (untraced window before it: %.1f inst/s), ops_failed=%d\n",
		wl.name, seed, int(n), throughput(tslices), throughput(uslices), failed)
	for _, p := range perLayer {
		res.Metrics[p.name] = metric{Value: m[p.name], Unit: p.unit}
		fmt.Fprintf(log, "  %-36s %14.4f %s\n", p.name, m[p.name], p.unit)
	}
	printChecks(log, wl.name, m)
	if path, err := tr.write(dir, wl.name, seed); err != nil {
		fmt.Fprintf(log, "trace not written: %v\n", err)
	} else {
		fmt.Fprintf(log, "trace: %s (%d traces in full)\n", path, len(tr.kept))
	}
	return res, nil
}

// printChecks prints the layer predictions that hold on the seed tree.
// They are expectations to read a later change against, not a gate: a
// multiplexed orb connection is meant to break the speedup one.
func printChecks(log io.Writer, workload string, m map[string]float64) {
	check := func(name string, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = "NOT MET"
		}
		fmt.Fprintf(log, "  check %-58s %s\n", name, verdict)
	}
	durableWAL := strings.HasPrefix(workload, "durable-wal")
	durable := durableWAL || workload == "recover-wal"
	remote := workload == "remote-pool"
	if !durable {
		// Not zero: Instantiate writes the root run in its own
		// transaction whether or not the engine is Ephemeral.
		check("store.ops_per_inst == 1 and txn.log_writes_per_inst == 1", m["store.ops_per_inst"] == 1 && m["txn.log_writes_per_inst"] == 1)
	}
	if !remote {
		check("taskexec.calls_per_inst == 0", m["taskexec.calls_per_inst"] == 0)
	}
	if durableWAL {
		check("store.write_amp > 1.5 (every state byte is also logged)", m["store.write_amp"] > 1.5)
	}
	if remote {
		check("orb.concurrent_speedup within 0.8-1.3 (serialised client)", m["orb.concurrent_speedup"] >= 0.8 && m["orb.concurrent_speedup"] <= 1.3)
	}
	check("time outside the generator's calls < 5% of the instance span", m["engine.outside_calls_pct"] < 5)
}
