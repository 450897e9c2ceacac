package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// set is one run of every workload on one seed.
type set struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]result `json:"workloads"`
}

// report is what a full run prints last and -out saves. Claim is always
// null: the benchmark measures, a change that claims a gain says so in
// its own issue.
type report struct {
	Env     map[string]any    `json:"env"`
	Seconds int               `json:"seconds"`
	Sets    []set             `json:"sets"`
	Traced  map[string]result `json:"traced"`
	Claim   *string           `json:"claim"`
}

// ungatedPrefix starts the line a single-workload run prints its
// ungated metrics on.
const ungatedPrefix = "ungated "

// child runs one workload in its own process, so CPU and allocation
// counters are not shared between workloads, and returns its result.
func child(exe, workload string, seed int64, seconds, trace int, echo bool) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if echo {
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
	}
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, fmt.Errorf("%s: %w", workload, err)
		}
		return res, fmt.Errorf("%s: last line is not a result: %w", workload, jerr)
	}
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte(ungatedPrefix)); ok {
			if jerr := json.Unmarshal(rest, &res.Ungated); jerr != nil {
				return res, fmt.Errorf("%s: ungated metrics: %w", workload, jerr)
			}
		}
	}
	return res, nil
}

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(v, n=4) does, which is
// what the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	data := sortedCopy(v)
	if len(data) < 2 {
		if len(data) == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := len(data) + 1
		j := min(max(i*m/4, 1), len(data)-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

func (r report) values(workload, metric string) []float64 {
	var v []float64
	for _, s := range r.Sets {
		if m, ok := s.Workloads[workload].Metrics[metric]; ok {
			v = append(v, m.Value)
		} else if m, ok := s.Workloads[workload].Ungated[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// runSets runs n full sets on one seed — every workload untraced, each
// in its own process — then every workload traced once, and prints
// every metric by name with its unit. The sets share the seed so that
// their spread is run-to-run noise and nothing else.
func runSets(n int, seed int64, seconds int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	root, _ := findRoot()
	rep := report{Env: environment(root), Seconds: seconds, Traced: map[string]result{}}
	failed := 0
	for i := 0; i < n; i++ {
		s := set{Seed: seed, Workloads: map[string]result{}}
		for _, wl := range workloads {
			res, err := child(exe, wl.name, s.Seed, seconds, 0, n == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failed += res.Failed
			s.Workloads[wl.name] = res
			if n > 1 {
				fmt.Printf("set %d/%d seed %d %-16s ops_attempted=%d ops_failed=%d\n", i+1, n, s.Seed, wl.name, res.Attempted, res.Failed)
			}
		}
		rep.Sets = append(rep.Sets, s)
	}
	for _, wl := range workloads {
		res, err := child(exe, wl.name, seed, seconds, 1, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		failed += res.Failed
		rep.Traced[wl.name] = res
	}
	if n > 1 {
		fmt.Printf("\n%-16s %-24s %14s %14s %14s %8s  unit\n", "workload", "metric", "median", "q1", "q3", "spread")
		for _, wl := range workloads {
			for _, m := range append(endToEnd, ungated...) {
				q1, q2, q3 := quartiles(rep.values(wl.name, m.name))
				fmt.Printf("%-16s %-24s %14.4f %14.4f %14.4f %7.1f%%  %s\n", wl.name, m.name, q2, q1, q3, 100*ratio(q3-q1, q2), m.unit)
			}
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(string(data))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d operations failed\n", failed)
		return 1
	}
	return 0
}

// exactCounts are the per-layer counts that must be identical between
// two runs of one program on one seed.
var exactCounts = []string{"engine.task_starts_per_inst", "store.ops_per_inst", "txn.log_writes_per_inst", "taskexec.calls_per_inst"}

// Exit codes of -compare. A script using the gate passes only on 0.
const (
	exitRegression = 1
	exitUnresolved = 3 // no regression shown, but a verdict is unresolved or an exact count differs
)

// compareFiles judges b against a with the BENCHMARK.json bounds: for
// every workload and end-to-end metric, whether b's median is worse
// than a's by more than the bound — or "unresolved" where either side's
// own spread exceeds the bound, which is not the same as unchanged. A
// median worse by more than bound and spread together is a regression
// however noisy a side is.
func compareFiles(spec benchSpec, pathA, pathB string) int {
	var a, b report
	for i, into := range []*report{&a, &b} {
		path := []string{pathA, pathB}[i]
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	regressions, unresolved := 0, 0
	fmt.Printf("%-16s %-24s %14s %14s %8s %8s %8s  verdict\n", "workload", "metric", "a median", "b median", "change", "spread", "bound")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.name, m.Name), b.values(wl.name, m.Name)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "unchanged"
			switch {
			case len(va) < 2 || len(vb) < 2:
				verdict = "unresolved (needs -repeat 2 or more on both sides)"
				unresolved++
			case sp > m.Bound && worse <= m.Bound+sp:
				verdict = "unresolved (spread exceeds bound)"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-16s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n", wl.name, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sp, 100*m.Bound, verdict)
		}
		for _, m := range ungated {
			va, vb := a.values(wl.name, m.name), b.values(wl.name, m.name)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-16s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %8s  not gated\n", wl.name, m.name, ma, mb, 100*ratio(mb-ma, ma), 100*max(spread(va), spread(vb)), "-")
		}
	}
	var names []string
	for name := range a.Traced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, c := range exactCounts {
			x, y := a.Traced[name].Metrics[c].Value, b.Traced[name].Metrics[c].Value
			verdict := "identical"
			if x != y {
				verdict = "DIFFERS"
				unresolved++
			}
			fmt.Printf("%-16s %-36s %14.4f %14.4f  %s\n", name, c, x, y, verdict)
		}
	}
	switch {
	case regressions > 0:
		return exitRegression
	case unresolved > 0:
		return exitUnresolved
	}
	return 0
}
