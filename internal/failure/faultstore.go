package failure

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
	"repro/internal/timers"
)

// DiskConfig tunes a FaultStore. All probabilities are per operation;
// all randomness derives from Seed, so a failing run replays exactly.
type DiskConfig struct {
	// FailWriteProb fails a file write outright (nothing reaches the
	// file).
	FailWriteProb float64
	// TornWriteProb cuts a file write at a random byte offset: the
	// prefix reaches the file, the call reports failure. This is the
	// torn-append fault the WAL's rollback must truncate away.
	TornWriteProb float64
	// FailSyncProb fails an fsync. The data may or may not have reached
	// the disk — exactly the ambiguity wedge semantics exist for.
	FailSyncProb float64
	// FailCloseProb fails a file close.
	FailCloseProb float64
	// BitFlipProb flips one random bit in a file's contents on read
	// (silent media corruption surfacing at recovery time).
	BitFlipProb float64
	// WriteBudget, when positive, is the number of bytes writable
	// before every further write fails with ENOSPC.
	WriteBudget int64
	// Delay adds fixed latency to writes and syncs.
	Delay time.Duration
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Clock paces Delay; nil selects timers.WallClock.
	Clock timers.Clock
}

// FaultStore is a store.FileOps that injects seeded disk faults between
// the WALStore and the real file system — the
// disk-side sibling of the Lossy network dialer. Deterministic triggers
// (WedgeSyncs) complement the probabilistic config for scripted
// degradation scenarios.
type FaultStore struct {
	base store.FileOps
	cfg  DiskConfig
	clk  timers.Clock

	mu         sync.Mutex
	rng        *rand.Rand
	written    int64
	wedgeSyncs bool
	stats      DiskStats
}

var _ store.FileOps = (*FaultStore)(nil)

// NewFaultStore returns a fault injector over the real file system.
func NewFaultStore(cfg DiskConfig) *FaultStore {
	return NewFaultStoreOver(store.OSOps{}, cfg)
}

// NewFaultStoreOver returns a fault injector over base.
func NewFaultStoreOver(base store.FileOps, cfg DiskConfig) *FaultStore {
	clk := cfg.Clock
	if clk == nil {
		clk = timers.Clock(timers.WallClock{})
	}
	return &FaultStore{
		base: base,
		cfg:  cfg,
		clk:  clk,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// WedgeSyncs makes every fsync from now on fail: the scripted trigger
// the degradation scenarios flip to simulate a disk going bad under a
// live coordinator.
func (f *FaultStore) WedgeSyncs() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wedgeSyncs = true
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultStore) Stats() DiskStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// DiskStats counts injected disk faults.
type DiskStats struct {
	FailedWrites int
	TornWrites   int
	FailedSyncs  int
	FailedCloses int
	BitFlips     int
	ENOSPC       int
}

// roll draws one probability decision under the injector's lock.
func (f *FaultStore) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

func (f *FaultStore) pause() {
	if f.cfg.Delay > 0 {
		<-f.clk.Wake(f.clk.Now().Add(f.cfg.Delay))
	}
}

// OpenFile implements store.FileOps, wrapping the handle.
func (f *FaultStore) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

// ReadFile implements store.FileOps, with bit-flip injection.
func (f *FaultStore) ReadFile(name string) ([]byte, error) {
	raw, err := f.base.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(raw) > 0 && f.roll(f.cfg.BitFlipProb) {
		f.mu.Lock()
		bit := f.rng.Intn(len(raw) * 8)
		f.stats.BitFlips++
		f.mu.Unlock()
		raw[bit/8] ^= 1 << (bit % 8)
	}
	return raw, nil
}

func (f *FaultStore) ReadDir(name string) ([]fs.DirEntry, error) { return f.base.ReadDir(name) }

func (f *FaultStore) Rename(oldpath, newpath string) error { return f.base.Rename(oldpath, newpath) }

func (f *FaultStore) Remove(name string) error { return f.base.Remove(name) }

func (f *FaultStore) MkdirAll(path string, perm os.FileMode) error {
	return f.base.MkdirAll(path, perm)
}

// SyncDir implements store.FileOps; directory syncs fail under the same
// conditions as file syncs.
func (f *FaultStore) SyncDir(dir string) error {
	if err := f.syncFault("sync dir " + dir); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// syncFault decides whether an fsync (file or directory) fails.
func (f *FaultStore) syncFault(what string) error {
	f.pause()
	f.mu.Lock()
	wedged := f.wedgeSyncs
	failed := wedged || (f.cfg.FailSyncProb > 0 && f.rng.Float64() < f.cfg.FailSyncProb)
	if failed {
		f.stats.FailedSyncs++
	}
	f.mu.Unlock()
	if failed {
		return fmt.Errorf("%s: %w: fsync failed", what, ErrInjected)
	}
	return nil
}

// faultFile wraps a store.File with the injector's write/sync/close
// faults.
type faultFile struct {
	fs *FaultStore
	f  store.File
}

// Write implements store.File. Faults, in order of precedence: outright
// failure (nothing written), ENOSPC once the byte budget is exhausted
// (the prefix that fits is written, like a real full disk), and a torn
// write cut at a seeded random offset.
func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.pause()
	fs := w.fs
	fs.mu.Lock()
	if fs.cfg.FailWriteProb > 0 && fs.rng.Float64() < fs.cfg.FailWriteProb {
		fs.stats.FailedWrites++
		fs.mu.Unlock()
		return 0, fmt.Errorf("write %s: %w: write failed", w.f.Name(), ErrInjected)
	}
	allowed := len(p)
	enospc := false
	if fs.cfg.WriteBudget > 0 {
		remaining := fs.cfg.WriteBudget - fs.written
		if remaining < int64(allowed) {
			allowed = int(max(remaining, 0))
			enospc = true
			fs.stats.ENOSPC++
		}
	}
	torn := false
	if !enospc && allowed > 0 && fs.cfg.TornWriteProb > 0 && fs.rng.Float64() < fs.cfg.TornWriteProb {
		allowed = fs.rng.Intn(allowed)
		torn = true
		fs.stats.TornWrites++
	}
	fs.mu.Unlock()

	n := 0
	var err error
	if allowed > 0 {
		n, err = w.f.Write(p[:allowed])
	}
	fs.mu.Lock()
	fs.written += int64(n)
	fs.mu.Unlock()
	if err != nil {
		return n, err
	}
	switch {
	case enospc:
		return n, fmt.Errorf("write %s: %w", w.f.Name(), syscall.ENOSPC)
	case torn:
		return n, fmt.Errorf("write %s: %w: torn write after %d bytes", w.f.Name(), ErrInjected, n)
	default:
		return n, nil
	}
}

// Sync implements store.File.
func (w *faultFile) Sync() error {
	if err := w.fs.syncFault("sync " + w.f.Name()); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close implements store.File.
func (w *faultFile) Close() error {
	if w.fs.roll(w.fs.cfg.FailCloseProb) {
		w.fs.mu.Lock()
		w.fs.stats.FailedCloses++
		w.fs.mu.Unlock()
		// The underlying handle still closes: leaking descriptors would
		// let a fault-injection sweep exhaust the process, and a real
		// failed close releases the descriptor too.
		_ = w.f.Close()
		return fmt.Errorf("close %s: %w: close failed", w.f.Name(), ErrInjected)
	}
	return w.f.Close()
}

func (w *faultFile) Truncate(size int64) error { return w.f.Truncate(size) }

func (w *faultFile) Name() string { return w.f.Name() }

// WedgeStore is a store.Store wrapper whose write path can be wedged on
// demand, mimicking a WALStore after a failed fsync: reads keep working
// (the in-memory index survives), every write fails with
// store.ErrWedged. The simulator mounts one per coordinator view of a
// partition, so "this coordinator's disk went bad" is injectable
// without disturbing the shared durable state a healthy peer recovers
// from.
type WedgeStore struct {
	inner store.Store
	mu    sync.Mutex
	err   error
}

var (
	_ store.Store       = (*WedgeStore)(nil)
	_ store.Batcher     = (*WedgeStore)(nil)
	_ store.LazyBatcher = (*WedgeStore)(nil)
)

// NewWedgeStore wraps inner, healthy.
func NewWedgeStore(inner store.Store) *WedgeStore { return &WedgeStore{inner: inner} }

// Wedge fail-stops the write path. A nil cause uses ErrInjected.
func (w *WedgeStore) Wedge(cause error) {
	if cause == nil {
		cause = ErrInjected
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = fmt.Errorf("%w: %v", store.ErrWedged, cause)
	}
}

// Wedged returns the wedge fault, or nil while healthy.
func (w *WedgeStore) Wedged() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Inner returns the wrapped store (the shared state a peer recovers
// from).
func (w *WedgeStore) Inner() store.Store { return w.inner }

func (w *WedgeStore) Read(id store.ID) ([]byte, error) { return w.inner.Read(id) }

func (w *WedgeStore) List(prefix store.ID) ([]store.ID, error) { return w.inner.List(prefix) }

func (w *WedgeStore) Write(id store.ID, data []byte) error {
	if err := w.Wedged(); err != nil {
		return fmt.Errorf("write %s: %w", id, err)
	}
	return w.inner.Write(id, data)
}

func (w *WedgeStore) Delete(id store.ID) error {
	if err := w.Wedged(); err != nil {
		return fmt.Errorf("delete %s: %w", id, err)
	}
	return w.inner.Delete(id)
}

// ApplyBatch implements store.Batcher.
func (w *WedgeStore) ApplyBatch(ops []store.BatchOp) error {
	if err := w.Wedged(); err != nil {
		return fmt.Errorf("apply batch: %w", err)
	}
	return store.ApplyBatch(w.inner, ops)
}

// ApplyBatchLazy implements store.LazyBatcher.
func (w *WedgeStore) ApplyBatchLazy(ops []store.BatchOp) error {
	if err := w.Wedged(); err != nil {
		return fmt.Errorf("apply batch: %w", err)
	}
	return store.ApplyBatchBestEffort(w.inner, ops)
}
