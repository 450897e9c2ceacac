// Command bench is the repository's performance benchmark: closed-loop
// workloads against the real in-process stack, six end-to-end metrics
// per workload, every instance's output verified against a reference
// oracle, and — in a separate traced run — time and work attributed to
// each layer through seams wrapped from outside. BENCHMARK.json at the
// repository root names the workloads, metrics and regression bounds;
// README.md in this directory explains them.
//
//	bash bench/run.sh --workload durable-wal --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                      # one full set: every workload, untraced then traced
//	bash bench/run.sh -repeat 5 -out a.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeed is used when -seed is not given. holdoutSeed is never
// used while a change is written; a claimed gain must also hold on it.
const (
	defaultSeed = 1
	holdoutSeed = 7919
)

// spec is the part of BENCHMARK.json the tool reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// fsName names the filesystem durable stores will live on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{0xef53: "ext2/3/4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x6969: "nfs"}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("type %#x", int64(st.Type))
}

// environment is recorded with every result.
func environment(dir string) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"filesystem":   fsName(dir),
		"flush_policy": fmt.Sprintf("WAL sync on, group commit, store defaults; real fsync, except durable-wal-model: every flush a blocking wait of %v + %v/KiB written; recover-wal populates with sync off", modelFlushBase, modelFlushPerKiB),
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line (default: a full set)")
		seed         = flag.Int64("seed", defaultSeed, "workload seed: same seed, same inputs")
		seconds      = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		repeat       = flag.Int("repeat", 1, "full sets to run on the one seed; prints median, quartiles and run-to-run spread per metric")
		out          = flag.String("out", "", "write the sets' results to this JSON file, for -compare")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments against the BENCHMARK.json bounds")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *workloadName == "" {
		return runSets(*repeat, *seed, *seconds, *out)
	}

	wl := findWorkload(*workloadName)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	dir, err := scratchDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	env, _ := json.Marshal(environment(dir))
	fmt.Printf("env %s\n", env)
	window := time.Duration(*seconds) * time.Second
	var res result
	if *trace != 0 {
		res, err = runTraced(wl, dir, *seed, window, os.Stdout)
	} else {
		res, err = runUntraced(wl, dir, *seed, window, setupRepeats, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if res.Ungated != nil {
		line, _ := json.Marshal(res.Ungated) // a map of numbers and strings
		fmt.Printf("%s%s\n", ungatedPrefix, line)
		res.Ungated = nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}
