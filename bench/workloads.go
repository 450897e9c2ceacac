package main

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/txn"
)

// poolLocation is the executor location the located shapes name.
const poolLocation = "pool"

// executors is the size of the remote-pool workload's executor pool.
const executors = 2

// serviceTime is what the fan-out's executor binding sleeps, so eight
// simultaneous dispatches measure how many can be in flight at once.
const serviceTime = time.Millisecond

// workload is one set of inputs and the assembly of the program under
// test that runs them.
type workload struct {
	name string
	// shapes and counts define the deck: counts[i] instances of
	// shapes[i] per pass of deckSize. The split keeps the median inside
	// the more frequent shape and the 90th percentile inside the other,
	// never on the gap between two shapes.
	shapes []shape
	counts []int
	// warmup is the fixed number of instances (recovery cycles on
	// recover-wal) every set-up runs before measuring, so set-up time
	// follows the program's speed and not a timer.
	warmup int
	// clients is the closed loop's width: callers that each wait for a
	// terminal outcome before issuing the next instance, the way execsvc
	// clients and wfload use the system. It is fixed, not derived from
	// the processor count, so two machines run the same load.
	clients int
	// modelFlush opens the WAL over modelDisk and not the real one.
	modelFlush bool
	build      func(rc *runCtx) (*world, error)
}

// durableWAL runs on the real disk, so it is as noisy as the disk of
// the day (a quarter to a third run to run on the reference box): run by
// full sets, -repeat and -compare, but not among BENCHMARK.json's
// workloads, whose spreads must stay inside the bounds.
var durableWAL = workload{
	name:    "durable-wal",
	shapes:  []shape{diamond(4), chain(16, "", "stage")},
	counts:  []int{14, 6},
	warmup:  40,
	clients: 2,
	build:   buildLocal(false),
}

// onModelDisk is w with its WAL over modelDisk: BENCHMARK.json's
// stand-in for w.
func onModelDisk(w workload) workload {
	w.name += "-model"
	w.modelFlush = true
	return w
}

var workloads = []workload{
	{
		name:    "local-ephemeral",
		shapes:  []shape{chain(32, "", "stage"), diamond(16), fan(32, "", "stage")},
		counts:  []int{7, 7, 6},
		warmup:  800,
		clients: 2,
		build:   buildLocal(true),
	},
	durableWAL,
	onModelDisk(durableWAL),
	{
		name:   "remote-pool",
		shapes: []shape{chain(8, poolLocation, "stage"), fan(8, poolLocation, "stage1ms")},
		counts: []int{6, 14},
		warmup: 200,
		// Four clients keep both serialised connections busy, so
		// throughput is set by connection time per instance — what the
		// multiplexing item changes — and not by how fast an idle
		// processor wakes up; with fewer, run-to-run spread triples.
		clients: 4,
		build:   buildRemote,
	},
	{
		name:    "recover-wal",
		shapes:  []shape{diamond(4)},
		counts:  []int{deckSize},
		warmup:  3,
		clients: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx is what one run of one workload shares: where durable stores
// live, the seed-derived inputs, and the tracer when the run is traced.
type runCtx struct {
	wl      *workload
	dir     string
	seed    int64
	deck    []spec
	filler  string
	compile engine.SchemaCompiler
	tr      *tracer
	// oracle holds, per shape, what the reference evaluation expects of
	// an instance beyond its output payload (which equals its seed).
	oracle []expectation
}

// expectation is the oracle's verdict on one shape.
type expectation struct {
	starts int // task starts, root compound included
	execs  int // task implementation runs
	remote int // of which dispatched to an executor
}

// world is one assembly of the program under test.
type world struct {
	eng     *engine.Engine
	schemas []*core.Schema
	// execs counts task implementation runs, local and hosted.
	execs   atomic.Int64
	closers []func()

	wal     *store.WALStore
	inv     *taskexec.Invoker
	poolReg *obs.Registry
}

func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

// compileShapes compiles every shape of the workload from its text.
func (rc *runCtx) compileShapes() ([]*core.Schema, error) {
	var out []*core.Schema
	rc.oracle = rc.oracle[:0]
	for _, s := range rc.wl.shapes {
		got, starts, remote := s.expect("seed")
		if got != "seed" {
			return nil, fmt.Errorf("shape %s does not carry its seed to its output", s.name)
		}
		rc.oracle = append(rc.oracle, expectation{starts: starts, execs: starts - 1, remote: remote})
		schema, err := rc.compile(s.name, []byte(s.source()))
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		out = append(out, schema)
	}
	return out, nil
}

// bind installs the pass-through implementations: a stage forwards its
// input, a pair its left input. service is slept by "stage1ms" only.
func bind(impls *registry.Registry, execs *atomic.Int64, tr *tracer, k kind) {
	forward := func(field string, sleep time.Duration) registry.Func {
		f := func(ctx registry.Context) (registry.Result, error) {
			execs.Add(1)
			if sleep > 0 {
				block(sleep)
			}
			return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()[field]}}, nil
		}
		if tr != nil {
			return wrapBinding(tr, k, f)
		}
		return f
	}
	impls.Bind("stage", forward("in", 0))
	impls.Bind("pair", forward("left", 0))
	impls.Bind("stage1ms", forward("in", serviceTime))
}

// stores returns the state store and the log store over st: st itself
// twice, or its two seams when traced.
func (rc *runCtx) stores(st store.Store) (state, log store.Store) {
	if rc.tr == nil {
		return st, st
	}
	return wrapStore(st, rc.tr, false), wrapStore(st, rc.tr, true)
}

func (rc *runCtx) engineConfig(ephemeral bool) engine.Config {
	cfg := engine.Config{Ephemeral: ephemeral}
	if rc.tr != nil {
		cfg.EventTap = eventTap(rc.tr)
	}
	return cfg
}

// block waits for d inside a blocking system call, the way a slow
// device does (the scheduler hands the processor on, and the
// wake-up has timer precision; time.Sleep rounds short waits up to the
// poller's millisecond).
func block(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens one wait
}

// The model disk's flush time, fitted to the reference box's real disk
// (ext4 on virtio): medians of 200 write+fsync pairs per size, three
// rounds, read 372-398 µs at 4 KiB, 378-554 µs at 16 KiB, 462-589 µs at
// 64 KiB and 715-817 µs at 256 KiB — a fixed cost plus a cost per byte
// written since the file's previous flush.
const (
	modelFlushBase   = 375 * time.Microsecond
	modelFlushPerKiB = 1500 * time.Nanosecond
)

// modelDisk is the FileOps under durable-wal-model: the real file
// system — segment files are written on the working filesystem — with
// every flush replaced by a blocking wait of the fitted length. The real
// fsync drifts between two levels a third apart within minutes, which
// no run length averages out; the model keeps what the program controls,
// how many flushes it issues, how many bytes each carries and how it
// overlaps them. The disk of the day is measured by durable-wal and
// reported beside the model as store.fsync_calib_us.
type modelDisk struct{ store.OSOps }

type modelFile struct {
	store.File
	unflushed atomic.Int64 // bytes
}

func (f *modelFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.unflushed.Add(int64(n))
	return n, err
}

func (f *modelFile) Sync() error {
	block(modelFlushBase + time.Duration(f.unflushed.Swap(0))*modelFlushPerKiB/1024)
	return nil
}

func (d modelDisk) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := d.OSOps.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &modelFile{File: f}, nil
}

func (d modelDisk) CreateTemp(dir, pattern string) (store.File, error) {
	f, err := d.OSOps.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &modelFile{File: f}, nil
}

func (modelDisk) SyncDir(string) error { block(modelFlushBase); return nil }

// openWAL opens a synced WAL store in dir: store.Open("wal", dir, true),
// or on the model workload the same store type, directory lock and
// defaults over modelDisk (store.Open takes no FileOps).
func (rc *runCtx) openWAL(dir string) (*store.WALStore, func(), error) {
	if !rc.wl.modelFlush {
		st, closer, err := store.Open("wal", dir, true)
		if err != nil {
			return nil, nil, err
		}
		return st.(*store.WALStore), closer, nil
	}
	unlock, err := store.LockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	wal, err := store.NewWALStoreWith(dir, modelDisk{})
	if err != nil {
		unlock()
		return nil, nil, err
	}
	wal.SetSync(true)
	return wal, func() { _ = wal.Close(); unlock() }, nil
}

// buildLocal assembles an engine with in-process bindings: ephemeral
// over a memory store nobody writes, or durable over a fresh synced
// WAL.
func buildLocal(ephemeral bool) func(rc *runCtx) (*world, error) {
	return func(rc *runCtx) (*world, error) {
		w := &world{}
		var err error
		if w.schemas, err = rc.compileShapes(); err != nil {
			return nil, err
		}
		var st store.Store = store.NewMemStore()
		if !ephemeral {
			dir, err := os.MkdirTemp(rc.dir, "wal-")
			if err != nil {
				return nil, err
			}
			w.closers = append(w.closers, func() { _ = os.RemoveAll(dir) })
			wal, closer, err := rc.openWAL(dir)
			if err != nil {
				w.close()
				return nil, err
			}
			w.wal, st = wal, wal
			w.closers = append(w.closers, closer)
		}
		state, log := rc.stores(st)
		impls := registry.New()
		bind(impls, &w.execs, rc.tr, kBinding)
		w.eng = engine.New(persist.NewRegistry(state, txn.NewManager(log), nil), impls, rc.engineConfig(ephemeral))
		w.closers = append(w.closers, w.eng.Close)
		return w, nil
	}
}

// buildRemote assembles an ephemeral engine whose located tasks run on
// two in-process orb servers over loopback TCP, through the round-robin
// pool invoker.
func buildRemote(rc *runCtx) (*world, error) {
	w := &world{poolReg: obs.NewRegistry()}
	var err error
	if w.schemas, err = rc.compileShapes(); err != nil {
		return nil, err
	}
	naming := orb.NewNaming()
	for i := 0; i < executors; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		if rc.tr != nil {
			ln = countingListener{Listener: ln, tr: rc.tr}
		}
		hosted := registry.New()
		bind(hosted, &w.execs, rc.tr, kExecutor)
		srv := orb.NewServerOn(ln)
		srv.Register(taskexec.ObjectName, taskexec.NewExecutor(hosted).Servant())
		w.closers = append(w.closers, srv.Close)
		naming.BindMember(poolLocation, srv.Addr(), 0)
	}
	client := orb.ClientConfig{Retries: 1, RetryDelay: time.Millisecond}
	if rc.tr != nil {
		client.Dialer = countingDialer(rc.tr)
	}
	w.inv, err = taskexec.NewPoolInvoker(naming.ResolveAll, taskexec.PoolConfig{
		Client: client, BlacklistFor: 500 * time.Millisecond, Metrics: w.poolReg,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.closers = append(w.closers, w.inv.Close)

	cfg := rc.engineConfig(true)
	cfg.RemoteInvoker = w.inv.Invoke
	if rc.tr != nil {
		cfg.RemoteInvoker = wrapInvoker(rc.tr, w.inv.Invoke)
	}
	state, log := rc.stores(store.NewMemStore())
	impls := registry.New()
	bind(impls, &w.execs, rc.tr, kBinding)
	w.eng = engine.New(persist.NewRegistry(state, txn.NewManager(log), nil), impls, cfg)
	w.closers = append(w.closers, w.eng.Close)
	return w, nil
}
