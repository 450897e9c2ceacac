// Command wfbench regenerates the paper's evaluation: it runs every
// figure's scenario and the system-level experiments, verifies the
// behaviour the paper claims, and prints the measurement table recorded
// in EXPERIMENTS.md. With -json the table is also written as
// machine-readable JSON (the format CI archives as BENCH_*.json); the
// schema is documented on benchReport.
//
// Usage:
//
//	wfbench [-iters N] [-quick] [-json path]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/script/parser"
	"repro/internal/script/sema"
	"repro/internal/scripts"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/workload"
)

// wall is the benchmark clock: wfbench measures real elapsed time by
// definition, so it reads the wall clock explicitly.
var wall = timers.WallClock{}

// runner is one benchmarkable scenario.
type runner interface {
	Run() error
	Close()
}

// benchRow is one measurement of the table, as emitted by -json.
type benchRow struct {
	// Exp is the experiment family ("F1".."F9", "X1".."X5", "ABL", "S1",
	// "S2", "S3", "S4", "S5").
	Exp string `json:"exp"`
	// Scenario is the human-readable scenario label of the row.
	Scenario string `json:"scenario"`
	// MeanNs is the representative wall-clock time of one scenario run
	// in nanoseconds: the best (minimum) iteration for measured rows —
	// the noise-robust statistic the regression gate compares — or the
	// aggregate mean for throughput rows (X3, X4, S3). The JSON key is
	// kept as mean_ns for schema compatibility.
	MeanNs int64 `json:"mean_ns"`
	// Note records the behaviour the run verified.
	Note string `json:"note"`
}

// benchReport is the top-level -json document: schema_version guards
// consumers against format drift (version 2 added the S3 executor-pool
// rows, version 3 the S4 temporal rows, version 4 the S5
// sharded-coordinator rows), iterations is the -iters flag value
// (individual rows may be measured with fewer iterations — the heavy
// X1/ABL/S1..S5 scenarios cap themselves), generated_at is RFC 3339
// UTC.
type benchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`
	Iterations    int    `json:"iterations"`
	Quick         bool   `json:"quick"`
	// CalibCPUNs and CalibFsyncNs are reference measurements taken by
	// this run (a fixed in-memory scheduler workload and a fixed fsync
	// loop). The -compare gate divides row times by the matching
	// calibration before comparing, so machine-wide slowdowns (slower
	// CI runner, noisy neighbour, throttling) cancel instead of
	// reading as regressions.
	CalibCPUNs   int64      `json:"calib_cpu_ns"`
	CalibFsyncNs int64      `json:"calib_fsync_ns"`
	Rows         []benchRow `json:"rows"`
}

// rows accumulates the table for -json alongside the printed output.
var rows []benchRow

func main() {
	iters := flag.Int("iters", 20, "iterations per measurement")
	quick := flag.Bool("quick", false, "reduce sweep sizes for a fast pass")
	jsonPath := flag.String("json", "", "also write the measurement table as JSON to this path")
	comparePath := flag.String("compare", "", "baseline JSON to gate against: fail if any S1/S2/S3/S4/S5 row regresses")
	threshold := flag.Float64("gate-threshold", 0.30, "relative slowdown vs baseline that fails the gate")
	flag.Parse()
	if err := run(*iters, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "wfbench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		report := benchReport{
			SchemaVersion: 4,
			GeneratedAt:   wall.Now().UTC().Format(time.RFC3339),
			Iterations:    *iters,
			Quick:         *quick,
			CalibCPUNs:    calibCPU.Nanoseconds(),
			CalibFsyncNs:  calibFsync.Nanoseconds(),
			Rows:          rows,
		}
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfbench: encode json:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wfbench: write json:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(rows), *jsonPath)
	}
	if *comparePath != "" {
		if err := compareBaseline(*comparePath, rows, calibCPU, calibFsync, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "wfbench: bench gate:", err)
			os.Exit(1)
		}
	}
}

// calibCPU and calibFsync are the machine-speed references this run
// measured. They are taken by run() immediately before the gated S1 and
// S2 sections — adjacency matters: shared machines drift between quiet
// and busy phases over tens of seconds, and a calibration taken at
// process start would not track the phase the gated rows ran in.
var calibCPU, calibFsync time.Duration

// calibrateCPU measures a fixed in-memory scheduler chain (the same
// kind of work as the S1/S3 rows): best of n.
func calibrateCPU() error {
	d, err := measure(experiments.NewSched("calib", workload.Chain(64), false), 15)
	if err != nil {
		return fmt.Errorf("cpu reference: %w", err)
	}
	calibCPU = d
	return nil
}

// calibrateFsync measures a fixed write+fsync loop (the dominant cost
// of the S2 rows): best of a batch of syncs.
func calibrateFsync() error {
	f, err := os.CreateTemp("", "wfbench-calib-*")
	if err != nil {
		return err
	}
	defer func() {
		_ = f.Close()
		_ = os.Remove(f.Name())
	}()
	block := make([]byte, 4096)
	const syncs = 24
	best := time.Duration(0)
	for i := 0; i < syncs; i++ {
		begin := wall.Now()
		if _, err := f.Write(block); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if d := wall.Now().Sub(begin); best == 0 || d < best {
			best = d
		}
	}
	calibFsync = best
	return nil
}

// gatedExps are the experiment families the -compare regression gate
// covers: the scheduler, persistence, executor-pool, temporal and
// sharded-coordinator ablations, whose scenarios are stable enough
// across machines for a relative threshold.
var gatedExps = map[string]bool{"S1": true, "S2": true, "S3": true, "S4": true, "S5": true}

// calibScale derives the machine-speed correction for one gated family:
// fresh calibration over baseline calibration, clamped so a deranged
// calibration sample can neither hide a real regression nor invent one.
func calibScale(freshNs, baseNs int64) float64 {
	if freshNs <= 0 || baseNs <= 0 {
		return 1
	}
	s := float64(freshNs) / float64(baseNs)
	if s < 0.5 {
		s = 0.5
	}
	if s > 4 {
		s = 4
	}
	return s
}

// compareBaseline fails (non-nil error) if any gated row of the fresh
// run is more than threshold slower than the same row of the baseline
// report, after correcting for machine speed via the calibration
// references (CPU for S1/S3, fsync for S2). Rows present on only one
// side are reported but do not fail the gate (scenario sets may grow).
func compareBaseline(path string, fresh []benchRow, calibCPU, calibFsync time.Duration, threshold float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	key := func(r benchRow) string { return r.Exp + "|" + r.Scenario }
	baseline := make(map[string]benchRow, len(base.Rows))
	for _, r := range base.Rows {
		if gatedExps[r.Exp] {
			baseline[key(r)] = r
		}
	}
	cpuScale := calibScale(calibCPU.Nanoseconds(), base.CalibCPUNs)
	fsyncScale := calibScale(calibFsync.Nanoseconds(), base.CalibFsyncNs)
	scaleOf := func(exp string) float64 {
		switch exp {
		case "S2":
			return fsyncScale
		case "S3", "S4", "S5":
			// S3 and S5 per-instance times are dominated by the
			// simulated-work sleeps (and, for the S5 kill row, the
			// lease-TTL failover wait), and the S4 temporal rows by the
			// delays and deadlines themselves; none varies with machine
			// speed, so scaling them would invent (or hide) regressions.
			return 1
		default:
			return cpuScale
		}
	}
	fmt.Printf("\nbench gate vs %s (threshold +%.0f%%; machine-speed scale cpu %.2fx, fsync %.2fx):\n",
		path, threshold*100, cpuScale, fsyncScale)
	var regressions []string
	compared := 0
	for _, r := range fresh {
		if !gatedExps[r.Exp] {
			continue
		}
		b, ok := baseline[key(r)]
		if !ok {
			fmt.Printf("  new row (not gated): %s %s\n", r.Exp, r.Scenario)
			continue
		}
		delete(baseline, key(r))
		compared++
		expected := float64(b.MeanNs) * scaleOf(r.Exp)
		ratio := float64(r.MeanNs)/expected - 1
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s %s: expected <=%.2fms, got %.2fms (%+.0f%%)",
				r.Exp, r.Scenario, expected*(1+threshold)/1e6, float64(r.MeanNs)/1e6, ratio*100))
		}
		fmt.Printf("  %-10s %-52s %+6.0f%%  %s\n", r.Exp, r.Scenario, ratio*100, verdict)
	}
	for k := range baseline {
		fmt.Printf("  row missing from this run (not gated): %s\n", k)
	}
	if compared == 0 {
		return fmt.Errorf("no gated rows in common with the baseline (stale %s?)", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d row(s) regressed >%.0f%% beyond machine-speed scaling:\n  %s",
			len(regressions), threshold*100, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("  %d rows within threshold\n", compared)
	return nil
}

// measure runs r.Run() n times and returns the BEST (minimum) latency.
// Interference on a shared machine only ever adds time, so the minimum
// is the noise-robust statistic: a real code regression raises the
// floor, a scheduling burst or fsync stall does not lower it. This is
// what makes the -compare regression gate usable at low iteration
// counts on busy CI runners.
func measure(r runner, n int) (time.Duration, error) {
	defer r.Close()
	// Warm-up iteration.
	if err := r.Run(); err != nil {
		return 0, err
	}
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		begin := wall.Now()
		if err := r.Run(); err != nil {
			return 0, err
		}
		if d := wall.Now().Sub(begin); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func row(id, scenario string, mean time.Duration, note string) {
	fmt.Printf("%-6s %-42s %12s   %s\n", id, scenario, mean.Round(time.Microsecond), note)
	rows = append(rows, benchRow{Exp: id, Scenario: scenario, MeanNs: mean.Nanoseconds(), Note: note})
}

func run(iters int, quick bool) error {
	fmt.Println("reproduction harness — Ranno/Shrivastava/Wheater, ICDCS'98")
	fmt.Printf("iterations per row: %d\n\n", iters)
	fmt.Printf("%-6s %-42s %12s   %s\n", "exp", "scenario", "best/run", "verified behaviour")
	fmt.Println("------ ------------------------------------------ ------------   ------------------")

	widths := []int{2, 8, 32, 128}
	depths := []int{1, 2, 4, 8}
	if quick {
		widths = []int{2, 8}
		depths = []int{1, 4}
	}

	// F1: the dependency diamond.
	for _, w := range widths {
		mean, err := measure(experiments.NewFig1(w), iters)
		if err != nil {
			return fmt.Errorf("F1 width %d: %w", w, err)
		}
		row("F1", fmt.Sprintf("Fig.1 diamond, width %d", w), mean, "t2,t3 after t1; t4 after both")
	}

	// F2: deterministic input-set and alternative selection.
	mean, err := measure(experiments.NewFig2(), iters)
	if err != nil {
		return fmt.Errorf("F2: %w", err)
	}
	row("F2", "Fig.2 two input sets + alternatives", mean, "first set, first alternative, every run")

	// F3: the state machine.
	mean, err = measure(experiments.NewFig3(4), iters)
	if err != nil {
		return fmt.Errorf("F3: %w", err)
	}
	row("F3", "Fig.3 wait/execute/mark/repeat/retry", mean, "4 repeats, 1 retried failure, marks each pass")

	// F4: the full distributed stack.
	f4, err := experiments.NewFig4()
	if err != nil {
		return fmt.Errorf("F4: %w", err)
	}
	mean, err = measure(f4, iters)
	if err != nil {
		return fmt.Errorf("F4: %w", err)
	}
	row("F4", "Fig.4 remote deploy+run over orb", mean, "naming->repository->execution round trip")

	// F5: nesting depth.
	for _, d := range depths {
		mean, err := measure(experiments.NewFig5(d), iters)
		if err != nil {
			return fmt.Errorf("F5 depth %d: %w", d, err)
		}
		row("F5", fmt.Sprintf("Fig.5 nested compounds, depth %d", d), mean, "outputs propagate through every level")
	}

	// F6, F7: the example applications.
	mean, err = measure(experiments.NewFig6(), iters)
	if err != nil {
		return fmt.Errorf("F6: %w", err)
	}
	row("F6", "Fig.6 service impact application", mean, "resolved path; 3 outcome alternatives exist")
	mean, err = measure(experiments.NewFig7(), iters)
	if err != nil {
		return fmt.Errorf("F7: %w", err)
	}
	row("F7", "Fig.7 process order application", mean, "concurrent auth+stock; atomic dispatch")

	// F8/F9: business trip.
	for _, rejects := range []int{0, 2} {
		mean, err := measure(experiments.NewFig89(rejects), iters)
		if err != nil {
			return fmt.Errorf("F8/9 rejects %d: %w", rejects, err)
		}
		note := "mark toPay before completion"
		if rejects > 0 {
			note = fmt.Sprintf("%d compensations + repeats, then success", rejects)
		}
		row("F8/9", fmt.Sprintf("Fig.8-9 business trip, %d hotel failures", rejects), mean, note)
	}

	// X1: crash recovery.
	x1Iters := iters
	if x1Iters > 10 {
		x1Iters = 10
	}
	var total time.Duration
	for i := 0; i < x1Iters; i++ {
		res, err := experiments.X1CrashRecovery(8, experiments.X1Opts{Settle: 60 * time.Second})
		if err != nil {
			return fmt.Errorf("X1: %w", err)
		}
		if res.ReExecuted {
			return fmt.Errorf("X1: completed task re-executed")
		}
		total += res.RecoveryTime
	}
	row("X1", "crash mid-workflow, recover, finish", total/time.Duration(x1Iters), "completed tasks not re-run")

	// X2: dynamic reconfiguration.
	x2, err := experiments.NewX2()
	if err != nil {
		return fmt.Errorf("X2: %w", err)
	}
	mean, err = measure(x2, iters)
	if err != nil {
		return fmt.Errorf("X2: %w", err)
	}
	row("X2", "add+remove task on a running instance", mean, "atomic, persisted, live tasks unaffected")

	// X3: baselines.
	for _, load := range []struct {
		name string
		src  string
	}{{"chain32", workload.Chain(32)}, {"diamond16", workload.Diamond(16)}} {
		w := experiments.NewX3(load.name, load.src)
		begin := wall.Now()
		for i := 0; i < iters; i++ {
			if err := w.RunEngine(); err != nil {
				return fmt.Errorf("X3 engine: %w", err)
			}
		}
		engineMean := wall.Now().Sub(begin) / time.Duration(iters)
		begin = wall.Now()
		for i := 0; i < iters; i++ {
			w.RunECA()
		}
		ecaMean := wall.Now().Sub(begin) / time.Duration(iters)
		begin = wall.Now()
		for i := 0; i < iters; i++ {
			w.RunPetri()
		}
		petriMean := wall.Now().Sub(begin) / time.Duration(iters)
		script, rules, net := w.SpecSizes()
		w.Close()
		row("X3", fmt.Sprintf("%s: engine", load.name), engineMean, fmt.Sprintf("spec: %d script elems", script))
		row("X3", fmt.Sprintf("%s: ECA rules", load.name), ecaMean, fmt.Sprintf("spec: %d rules", rules))
		row("X3", fmt.Sprintf("%s: Petri net", load.name), petriMean, fmt.Sprintf("spec: %d net elems", net))
	}

	// X4: front-end throughput.
	for _, n := range []int{10, 100} {
		src := []byte(workload.Chain(n))
		begin := wall.Now()
		for i := 0; i < iters; i++ {
			if _, err := parser.Parse("bench", src); err != nil {
				return fmt.Errorf("X4: %w", err)
			}
		}
		parseMean := wall.Now().Sub(begin) / time.Duration(iters)
		begin = wall.Now()
		for i := 0; i < iters; i++ {
			if _, err := sema.CompileSource("bench", src); err != nil {
				return fmt.Errorf("X4: %w", err)
			}
		}
		compileMean := wall.Now().Sub(begin) / time.Duration(iters)
		row("X4", fmt.Sprintf("parse %d-task script", n), parseMean, fmt.Sprintf("%d bytes", len(src)))
		row("X4", fmt.Sprintf("parse+check %d-task script", n), compileMean, "")
	}

	// X5: lossy network.
	for _, p := range []float64{0.1, 0.3} {
		x5, err := experiments.NewX5(p, 42)
		if err != nil {
			return fmt.Errorf("X5: %w", err)
		}
		mean, err := measure(x5, iters)
		if err != nil {
			return fmt.Errorf("X5 p=%.1f: %w", p, err)
		}
		row("X5", fmt.Sprintf("remote run, refuse prob %.1f", p), mean, "eventual completion via retries")
	}

	// Ablations.
	for _, cfg := range []struct {
		name      string
		ephemeral bool
		file      bool
	}{{"ephemeral (no persistence)", true, false}, {"memory store", false, false}, {"file store", false, true}} {
		var st store.Store = store.NewMemStore()
		if cfg.file {
			dir, err := os.MkdirTemp("", "wfbench-*")
			if err != nil {
				return err
			}
			defer func() { _ = os.RemoveAll(dir) }()
			st, err = experiments.NewFileStoreEnv(dir)
			if err != nil {
				return err
			}
		}
		f, err := experiments.AblationEnv(st, cfg.ephemeral)
		if err != nil {
			return err
		}
		ablIters := iters
		if cfg.file && ablIters > 5 {
			ablIters = 5
		}
		mean, err := measure(f, ablIters)
		if err != nil {
			return fmt.Errorf("ablation %s: %w", cfg.name, err)
		}
		row("ABL", "diamond(4) with "+cfg.name, mean, "persistence design-decision cost")
	}

	// Scheduler ablation: dependency-indexed dirty set vs full rescan.
	// These rows feed the -compare regression gate, so they take enough
	// samples for the best-iteration statistic to dodge interference
	// bursts (the rows are cheap; 15 iterations is still milliseconds),
	// and the CPU calibration is measured here, adjacent to them.
	if err := calibrateCPU(); err != nil {
		return err
	}
	schedN := 1000
	schedIters := iters
	if quick {
		schedN = 100
	}
	if schedIters < 15 {
		schedIters = 15
	}
	for _, load := range []struct {
		name string
		src  string
	}{
		{fmt.Sprintf("chain(%d)", schedN), workload.Chain(schedN)},
		{fmt.Sprintf("fanin(%d)", schedN), workload.FanIn(schedN)},
	} {
		for _, mode := range []struct {
			name       string
			fullRescan bool
		}{{"dirty-set index", false}, {"full rescan", true}} {
			mean, err := measure(experiments.NewSched(load.name, load.src, mode.fullRescan), schedIters)
			if err != nil {
				return fmt.Errorf("S1 %s/%s: %w", load.name, mode.name, err)
			}
			row("S1", load.name+" with "+mode.name, mean, "per-event scheduling cost ablation")
		}
	}

	// S2 persistence ablation: durable (fsync-enabled) chain under the
	// shadow-file store vs the group-commit WAL store, each with
	// per-transition transactions (legacy) and batched-per-drain
	// persistence. The wal+batched row is the production configuration.
	// Also gated: five samples bound the cost of the fsync-heavy rows
	// while giving the best-iteration statistic room to dodge stalls;
	// the fsync calibration is measured here, adjacent to them.
	if err := calibrateFsync(); err != nil {
		return err
	}
	persistN := 64
	persistIters := 5
	if quick {
		persistN = 16
	}
	for _, backend := range []string{"file", "wal"} {
		for _, mode := range []struct {
			name          string
			perTransition bool
		}{{"per-transition txns", true}, {"batched drains", false}} {
			dir, err := os.MkdirTemp("", "wfbench-persist-*")
			if err != nil {
				return err
			}
			defer func() { _ = os.RemoveAll(dir) }()
			p, err := experiments.NewPersistChain(backend, mode.perTransition, persistN, dir)
			if err != nil {
				return fmt.Errorf("S2 %s/%s: %w", backend, mode.name, err)
			}
			mean, err := measure(p, persistIters)
			if err != nil {
				return fmt.Errorf("S2 %s/%s: %w", backend, mode.name, err)
			}
			row("S2", fmt.Sprintf("chain(%d) durable, %s store, %s", persistN, backend, mode.name), mean, "group-commit + batch ablation (fsync on)")
		}
	}

	// S3 executor-pool scaling: the closed-loop load generator drives
	// located-workflow instances against in-process executor pools of
	// 1/2/4 members (each member works on one activation at a time and
	// each activation carries simulated work, so the pool is the bottleneck
	// and throughput must scale with members), plus the
	// kill-one-mid-run failover scenario.
	loadWorkers, loadTotal := 8, 96
	if quick {
		loadTotal = 48
	}
	var oneExecRate float64
	for _, execs := range []int{1, 2, 4} {
		le, err := experiments.NewLoadEnv(experiments.LoadConfig{
			Executors: execs, ChainLen: 4, TaskDelay: 2 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("S3 %d executors: %w", execs, err)
		}
		rep, err := le.Run(loadWorkers, loadTotal, nil)
		le.Close()
		if err != nil {
			return fmt.Errorf("S3 %d executors: %w", execs, err)
		}
		if execs == 1 {
			oneExecRate = rep.InstancesPerSec
		}
		note := fmt.Sprintf("%.0f inst/s, act p99 %v", rep.InstancesPerSec, rep.ActP99.Round(time.Microsecond))
		if execs > 1 && oneExecRate > 0 {
			note += fmt.Sprintf(" (%.1fx vs 1 executor)", rep.InstancesPerSec/oneExecRate)
		}
		row("S3", fmt.Sprintf("loadgen chain(4), %d executor(s)", execs),
			time.Duration(float64(rep.Elapsed)/float64(rep.Instances)), note)
	}
	{
		le, err := experiments.NewLoadEnv(experiments.LoadConfig{
			Executors: 2, ChainLen: 4, TaskDelay: 2 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("S3 kill-one: %w", err)
		}
		rep, err := le.Run(loadWorkers, loadTotal, func() { le.KillExecutor(0) })
		le.Close()
		if err != nil {
			return fmt.Errorf("S3 kill-one: %w", err)
		}
		if rep.Instances != loadTotal {
			return fmt.Errorf("S3 kill-one: %d/%d instances completed", rep.Instances, loadTotal)
		}
		row("S3", "loadgen chain(4), 2 executors, kill one mid-run",
			time.Duration(float64(rep.Elapsed)/float64(rep.Instances)),
			fmt.Sprintf("all %d instances completed via failover", rep.Instances))
	}

	// S4 temporal subsystem: timing-wheel churn (10k concurrent timers
	// with fire-latency percentiles), engine-level timer chains and
	// deadline fan-outs, and the crash-recovery scenario asserting a
	// delay crashed over mid-flight fires exactly once at its original
	// absolute deadline. Every row is sleep-dominated by design, so the
	// -compare gate exempts S4 from CPU calibration scaling (as S3).
	churnN := 10_000
	if quick {
		churnN = 2_000
	}
	churn, err := experiments.TimerChurn(churnN, 50*time.Millisecond)
	if err != nil {
		return fmt.Errorf("S4 churn: %w", err)
	}
	row("S4", fmt.Sprintf("wheel churn, %d timers (1/3 cancelled)", churnN), churn.Elapsed,
		fmt.Sprintf("%d fired once each; fire lateness p50=%v p99=%v",
			churn.Fired, churn.P50.Round(time.Microsecond), churn.P99.Round(time.Microsecond)))

	s4Iters := iters
	if s4Iters > 5 {
		s4Iters = 5
	}
	timerChainN := 8
	mean, err = measure(experiments.NewTimerChain(timerChainN, 2*time.Millisecond), s4Iters)
	if err != nil {
		return fmt.Errorf("S4 timer chain: %w", err)
	}
	row("S4", fmt.Sprintf("timer chain(%d), 2ms first-class delays", timerChainN), mean,
		fmt.Sprintf("no implementation code; %dms delay floor", timerChainN*2))

	fanN := 32
	mean, err = measure(experiments.NewDeadlineFanOut(fanN, time.Millisecond), s4Iters)
	if err != nil {
		return fmt.Errorf("S4 deadline fan-out: %w", err)
	}
	row("S4", fmt.Sprintf("deadline fan-out(%d), none expire", fanN), mean,
		fmt.Sprintf("%d wheel deadlines armed+disarmed per run", fanN))

	{
		dir, cleanup, err := experiments.NewS4Dir()
		if err != nil {
			return err
		}
		defer cleanup()
		res, err := experiments.S4CrashDelay(250*time.Millisecond, 100*time.Millisecond, dir)
		if err != nil {
			return fmt.Errorf("S4 crash recovery: %w", err)
		}
		// A restarted-from-zero delay drifts by the pre-crash runtime
		// (100ms) plus recovery; absolute-deadline re-arm keeps drift to
		// wheel lateness plus recovery overhead.
		if res.Drift > 80*time.Millisecond {
			return fmt.Errorf("S4 crash recovery: deadline drift %v (delay restarted from zero?)", res.Drift)
		}
		row("S4", "crash mid-delay, recover, fire at deadline", res.Total,
			fmt.Sprintf("fired once, %v past the original absolute deadline", res.Drift.Round(time.Microsecond)))
	}

	// S5 sharded coordinator tier: the closed-loop generator drives
	// instances through the routing client against tiers of 1/2/4
	// coordinators sharing one set of partition stores. Stages are
	// engine-internal sleeps that run concurrently, so a lone
	// coordinator is nowhere near compute-bound at this load — the
	// 2/4-coordinator rows price the sharding tax (partition routing,
	// lease checks, smaller per-engine batches) against the
	// 1-coordinator baseline rather than demonstrating scale-up. The
	// last row is the kill-a-coordinator gauntlet: SIGKILL semantics on
	// one of two coordinators mid-run, lease-lapse failover, every
	// instance still completes on the survivor. All rows are
	// sleep-dominated (and the kill row waits out the lease TTL), so
	// the -compare gate exempts S5 from CPU calibration scaling.
	shardWorkers, shardTotal := 8, 96
	if quick {
		shardTotal = 48
	}
	shardTTL := 500 * time.Millisecond
	var oneCoordRate float64
	for _, coords := range []int{1, 2, 4} {
		se, err := experiments.NewShardEnv(experiments.ShardConfig{
			Coordinators: coords, ChainLen: 4, StageDelay: 2 * time.Millisecond, LeaseTTL: shardTTL,
		})
		if err != nil {
			return fmt.Errorf("S5 %d coordinators: %w", coords, err)
		}
		rep, err := se.Run(shardWorkers, shardTotal, nil)
		se.Close()
		if err != nil {
			return fmt.Errorf("S5 %d coordinators: %w", coords, err)
		}
		if coords == 1 {
			oneCoordRate = rep.InstancesPerSec
		}
		note := fmt.Sprintf("%.0f inst/s", rep.InstancesPerSec)
		if coords > 1 && oneCoordRate > 0 {
			note += fmt.Sprintf(" (%.1fx vs 1 coordinator)", rep.InstancesPerSec/oneCoordRate)
		}
		row("S5", fmt.Sprintf("sharded loadgen chain(4), %d coordinator(s)", coords),
			time.Duration(float64(rep.Elapsed)/float64(rep.Instances)), note)
	}
	{
		se, err := experiments.NewShardEnv(experiments.ShardConfig{
			Coordinators: 2, ChainLen: 4, StageDelay: 2 * time.Millisecond, LeaseTTL: shardTTL,
		})
		if err != nil {
			return fmt.Errorf("S5 kill-one: %w", err)
		}
		var failover time.Duration
		var failoverErr error
		rep, err := se.Run(shardWorkers, shardTotal, func() {
			se.KillCoordinator(0)
			failover, failoverErr = se.AwaitFailover(30 * time.Second)
		})
		se.Close()
		if err != nil {
			return fmt.Errorf("S5 kill-one: %w", err)
		}
		if failoverErr != nil {
			return fmt.Errorf("S5 kill-one failover: %w", failoverErr)
		}
		if rep.Instances != shardTotal {
			return fmt.Errorf("S5 kill-one: %d/%d instances completed", rep.Instances, shardTotal)
		}
		row("S5", "sharded loadgen chain(4), 2 coordinators, kill one",
			time.Duration(float64(rep.Elapsed)/float64(rep.Instances)),
			fmt.Sprintf("all %d completed; lease failover %v", rep.Instances, failover.Round(time.Millisecond)))
	}

	// Specification sizes of the paper's own applications.
	fmt.Println()
	fmt.Println("specification sizes (Section 6 comparison):")
	fmt.Printf("%-20s %14s %10s %12s\n", "script", "script elems", "ECA rules", "petri elems")
	for _, name := range []string{"fig1_diamond", "service_impact", "process_order", "business_trip"} {
		w := experiments.NewX3Spec(name, scripts.All[name])
		script, rules, net := w.SpecSizes()
		w.Close()
		fmt.Printf("%-20s %14d %10d %12d\n", name, script, rules, net)
	}
	return nil
}
