package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/timers"
)

// WALStore is a log-structured Store with group commit. Every Write,
// Delete and ApplyBatch is appended as one length-prefixed, checksummed
// record to the active segment file, so a batch is durable entirely or
// not at all; the current state of every object is kept in an
// in-memory read-through index rebuilt from the segments on open. All
// writers that arrive while an fsync is in flight are coalesced into a
// single group commit — one fsync amortised over all of them — which is
// what makes durability cost scale with commit *batches* instead of
// state transitions.
//
// Recovery tolerates a torn tail record (a crash mid-append) by
// truncating the segment at the last fully checksummed record. Once the
// garbage in segment files (superseded puts, deletes and their victims)
// crosses a threshold, closed segments are compacted into a snapshot
// file holding only live objects; a crash at any point of compaction
// leaves either the old segments or the snapshot authoritative, never a
// mix (snapshots are only honoured when their completion marker made it
// to disk, and superseded segments are re-deleted on the next open).
type WALStore struct {
	dir string
	// ops is the file-system seam; OSOps in production, a fault
	// injector in the crash-consistency gauntlet.
	ops FileOps

	// mu guards the index, the garbage accounting and the commit queue.
	mu    sync.Mutex
	index map[ID][]byte
	// segIDs holds the IDs whose current record lives in a segment file
	// (as opposed to the snapshot): only superseding those creates
	// segment garbage, which is what the compaction trigger counts.
	segIDs map[ID]struct{}
	// records and garbage count the records held by segment files not
	// covered by a snapshot, and how many of those are dead weight.
	records int
	garbage int
	queue   []*walCommit
	// inflight holds the ops a leader has dequeued but not yet applied to
	// the index; Delete's existence check folds queue and inflight over
	// the index so serialisation matches the other Store implementations.
	inflight []*walCommit
	// flushing marks an active group-commit leader. Followers never
	// touch flushMu — they enqueue and wait on their done channel, so
	// commits pile up in the queue while the leader's fsync is in
	// flight and the next drain takes them all with one sync. (Having
	// every committer acquire flushMu and self-drain looks equivalent
	// but is not: once the mutex enters starvation mode its strict FIFO
	// handoff marches the writers through in lock-step, every drain
	// sees exactly one queued commit, and group commit degenerates to
	// an fsync per write.)
	flushing bool
	closed   bool

	// flushMu serialises segment appends and fsyncs; the holder is the
	// group-commit leader and flushes everyone queued under mu.
	flushMu    sync.Mutex
	f          File
	activeSeq  uint64
	activeSize int64
	// wedged is set (only under flushMu; read anywhere) when a failed
	// append could not be rolled back, or an fsync failed: the segment
	// may hold a torn record that replay would treat as the tail,
	// silently dropping anything appended after it — so nothing may be
	// appended after it, and a failed fsync is never retried as if the
	// data reached disk. Commits fail with ErrWedged until the store is
	// reopened (replay truncates the tear).
	wedged atomic.Pointer[error]

	sync             bool
	syncs            atomic.Int64
	compactErr       atomic.Pointer[error]
	maxSegmentBytes  int64
	compactThreshold int

	// Optional instruments, wired by SetMetrics before traffic and read
	// only under flushMu (the fsync/commit/wedge paths all hold it).
	// All nil until wired; obs instruments no-op on nil.
	metClk           timers.Clock
	metFsyncs        *obs.Counter
	metFsyncSeconds  *obs.Histogram
	metCommitBatches *obs.Counter
	metCommitOps     *obs.Counter
	metWedges        *obs.Counter
}

var (
	_ Store   = (*WALStore)(nil)
	_ Batcher = (*WALStore)(nil)
)

// walCommit is one queued batch waiting for the group-commit leader.
type walCommit struct {
	buf  []byte
	ops  []BatchOp
	done chan error
	// lazy batches do not require their own fsync: their durability rides
	// on the next synced append (appends are ordered, so any later fsync
	// covers them). Used for best-effort cleanup whose loss is harmless.
	lazy bool
}

// allLazy reports whether every queued batch waived its fsync.
func allLazy(q []*walCommit) bool {
	for _, c := range q {
		if !c.lazy {
			return false
		}
	}
	return true
}

// Record ops. A record is [4B payload length][4B IEEE CRC32 of payload]
// [payload]; the payload is the op byte followed by op-specific fields.
// A batch of more than one op is one 'b' record, so the checksum covers
// the whole batch and a torn tail loses all of it or none. Trees older
// than the batch record wrote one 'p'/'d' record per op; replay still
// reads those.
const (
	walOpPut      = 'p' // [4B id length][id][data]
	walOpDelete   = 'd' // [4B id length][id]
	walOpBatch    = 'b' // [4B op count], then per op [1B 'p'|'d'][4B id length][id], and for 'p' [4B data length][data]
	walOpComplete = 'c' // snapshot completion marker, no fields
)

const (
	walSegPrefix  = "wal-"
	walSnapPrefix = "snap-"
	walSuffix     = ".seg"

	defaultMaxSegmentBytes  = 4 << 20
	defaultCompactThreshold = 8192
)

// NewWALStore opens (creating if needed) a WAL store rooted at dir,
// replaying the newest complete snapshot and every later segment.
func NewWALStore(dir string) (*WALStore, error) {
	return NewWALStoreWith(dir, OSOps{})
}

// NewWALStoreWith opens a WAL store whose file traffic goes through
// ops; the fault-injection gauntlet passes a failure.FaultStore.
func NewWALStoreWith(dir string, ops FileOps) (*WALStore, error) {
	if ops == nil {
		ops = OSOps{}
	}
	if err := ops.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open wal store: %w", err)
	}
	s := &WALStore{
		dir:              dir,
		ops:              ops,
		index:            make(map[ID][]byte),
		segIDs:           make(map[ID]struct{}),
		sync:             true,
		maxSegmentBytes:  defaultMaxSegmentBytes,
		compactThreshold: defaultCompactThreshold,
	}
	if err := s.load(); err != nil {
		return nil, fmt.Errorf("open wal store: %w", err)
	}
	return s, nil
}

// Wedged returns the fault that wedged the store, or nil while it is
// healthy. The returned error matches ErrWedged. Operational surfaces
// (per-partition health) poll it without blocking on in-flight flushes.
func (s *WALStore) Wedged() error {
	if p := s.wedged.Load(); p != nil {
		return *p
	}
	return nil
}

// wedge records the fault that fail-stops the store (flushMu held) and
// returns the wrapped error handed to every waiter from now on.
func (s *WALStore) wedge(cause error) error {
	err := fmt.Errorf("%w: %v", ErrWedged, cause)
	s.wedged.Store(&err)
	s.metWedges.Inc()
	return err
}

// SetSync controls whether commits fsync the segment (default true).
func (s *WALStore) SetSync(on bool) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.sync = on
}

// SetMetrics wires the store's instruments into reg: fsync count and
// latency, commit batch/op counts (their ratio is the group-commit
// coalescing factor) and wedge events. clk stamps fsync latencies (nil
// selects the wall clock). Call once, before serving traffic; a nil reg
// leaves the store unobserved.
func (s *WALStore) SetMetrics(reg *obs.Registry, clk timers.Clock) {
	if clk == nil {
		clk = timers.WallClock{}
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.metClk = clk
	s.metFsyncs = reg.Counter(obs.MStoreFsyncs)
	s.metFsyncSeconds = reg.Histogram(obs.MStoreFsyncSeconds, nil)
	s.metCommitBatches = reg.Counter(obs.MStoreCommitBatches)
	s.metCommitOps = reg.Counter(obs.MStoreCommitOps)
	s.metWedges = reg.Counter(obs.MStoreWedges)
}

// SetCompactThreshold overrides the garbage-record count that triggers
// compaction (n <= 0 restores the default); tests use small values.
func (s *WALStore) SetCompactThreshold(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = defaultCompactThreshold
	}
	s.compactThreshold = n
}

// SetMaxSegmentBytes overrides the rotation size (n <= 0 restores the
// default); tests use small values.
func (s *WALStore) SetMaxSegmentBytes(n int64) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if n <= 0 {
		n = defaultMaxSegmentBytes
	}
	s.maxSegmentBytes = n
}

// Syncs reports the number of fsyncs issued so far: the group-commit
// benchmarks assert it stays far below the number of commits.
func (s *WALStore) Syncs() int64 { return s.syncs.Load() }

// Len returns the number of live objects (diagnostics and tests).
func (s *WALStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close flushes queued commits and closes the active segment. Further
// operations fail.
func (s *WALStore) Close() error {
	s.flushMu.Lock()
	s.mu.Lock()
	q := s.queue
	s.queue = nil
	s.closed = true
	s.mu.Unlock()
	err := s.appendLocked(q)
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.flushMu.Unlock()
	return err
}

// --- record encoding ---------------------------------------------------

func appendRecord(buf []byte, payload []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...)
}

// encodeBatch appends ops as one record: a single op keeps its 'p'/'d'
// form, more than one become a 'b' record.
func encodeBatch(buf []byte, ops []BatchOp) []byte {
	size := 8 + 5
	for _, op := range ops {
		size += 9 + len(op.ID) + len(op.Data)
	}
	buf = slices.Grow(buf, size)
	hdr := len(buf)
	buf = buf[:hdr+8]
	if len(ops) == 1 {
		buf = appendOpPayload(buf, ops[0], false)
	} else {
		buf = appendBatchPayload(buf, ops)
	}
	payload := buf[hdr+8:]
	binary.BigEndian.PutUint32(buf[hdr:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[hdr+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendOpPayload appends op's kind byte and id, then its data: to the
// end of the record for a lone op, length-prefixed inside a batch.
func appendOpPayload(buf []byte, op BatchOp, inBatch bool) []byte {
	if op.Delete {
		buf = append(buf, walOpDelete)
	} else {
		buf = append(buf, walOpPut)
	}
	buf = append(binary.BigEndian.AppendUint32(buf, uint32(len(op.ID))), op.ID...)
	if op.Delete {
		return buf
	}
	if inBatch {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Data)))
	}
	return append(buf, op.Data...)
}

func appendBatchPayload(buf []byte, ops []BatchOp) []byte {
	buf = binary.BigEndian.AppendUint32(append(buf, walOpBatch), uint32(len(ops)))
	for _, op := range ops {
		buf = appendOpPayload(buf, op, true)
	}
	return buf
}

// decodeRecord parses one record payload, appending its ops to dst[:0].
// Op data aliases payload. Every length is checked against the bytes
// left before it is used to slice or size anything, and a 'b' record
// decodes completely or not at all.
func decodeRecord(payload []byte, dst []BatchOp) ([]BatchOp, byte, error) {
	ops := dst[:0]
	if len(payload) == 0 {
		return ops, 0, fmt.Errorf("empty record")
	}
	kind := payload[0]
	rest := payload[1:]
	// take returns the next length-prefixed field of rest.
	take := func(what string) ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("short record")
		}
		n := binary.BigEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-4) {
			return nil, fmt.Errorf("%s length %d exceeds record", what, n)
		}
		field := rest[4 : 4+n]
		rest = rest[4+n:]
		return field, nil
	}
	switch kind {
	case walOpComplete:
		if len(rest) != 0 {
			return ops, 0, fmt.Errorf("%d trailing bytes after marker", len(rest))
		}
		return ops, kind, nil
	case walOpPut, walOpDelete:
		id, err := take("id")
		if err != nil {
			return ops, 0, err
		}
		op := BatchOp{ID: ID(id), Delete: kind == walOpDelete}
		if kind == walOpPut {
			op.Data = rest
		} else if len(rest) != 0 {
			return ops, 0, fmt.Errorf("%d trailing bytes after delete", len(rest))
		}
		return append(ops, op), kind, nil
	case walOpBatch:
		if len(rest) < 4 {
			return ops, 0, fmt.Errorf("short record")
		}
		count := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		// Each op takes at least its kind byte and id length.
		if uint64(count) > uint64(len(rest)/5) {
			return ops, 0, fmt.Errorf("op count %d exceeds record", count)
		}
		ops = slices.Grow(ops, int(count))
		for k := uint32(0); k < count; k++ {
			if len(rest) == 0 || (rest[0] != walOpPut && rest[0] != walOpDelete) {
				return ops[:0], 0, fmt.Errorf("batch op %d: short or of unknown kind", k)
			}
			op := BatchOp{Delete: rest[0] == walOpDelete}
			rest = rest[1:]
			id, err := take("id")
			if err == nil && !op.Delete {
				op.Data, err = take("data")
			}
			if err != nil {
				return ops[:0], 0, err
			}
			op.ID = ID(id)
			ops = append(ops, op)
		}
		if len(rest) != 0 {
			return ops[:0], 0, fmt.Errorf("%d trailing bytes after batch", len(rest))
		}
		return ops, kind, nil
	default:
		return ops, 0, fmt.Errorf("unknown record op %q", kind)
	}
}

// scanRecords reads records from path via ops, calling apply for each
// fully checksummed one, and returns the offset after the last good
// record and whether a snapshot completion marker ended the scan.
//
// A bad record (short, checksum mismatch, undecodable) is classified by
// what follows it: if no fully checksummed record exists anywhere after
// the failure point, it is a torn tail — a crash mid-append that lost
// only a suffix never acknowledged — and the scan stops without error.
// If a valid record DOES exist after it, acknowledged writes sit beyond
// the damage: silent truncation would drop them, so the scan fails loud
// with ErrCorrupt and the store refuses to open.
//
// A record's ops reach apply only once the whole record has checksummed
// and decoded, so a batch is applied entirely or not at all.
func scanRecords(ops FileOps, path string, apply func(BatchOp) error) (valid int64, complete bool, err error) {
	raw, err := ops.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	return scanBytes(raw, path, apply)
}

// scanBytes is scanRecords over segment bytes already in memory; path
// only labels errors. The op data apply sees aliases raw.
func scanBytes(raw []byte, path string, apply func(BatchOp) error) (valid int64, complete bool, err error) {
	off := 0
	var batch []BatchOp
	bail := func(reason string) (int64, bool, error) {
		if tear := findRecordAfter(raw, off+1); tear >= 0 {
			return int64(off), false, fmt.Errorf(
				"%s at offset %d of %s (%s) but valid record at offset %d: %w",
				reason, off, path, "mid-log damage, not a torn tail", tear, ErrCorrupt)
		}
		return int64(off), false, nil // torn tail
	}
	for {
		if len(raw)-off < 8 {
			if len(raw)-off > 0 {
				return bail("short record header")
			}
			return int64(off), false, nil
		}
		n := int(binary.BigEndian.Uint32(raw[off:]))
		sum := binary.BigEndian.Uint32(raw[off+4:])
		if len(raw)-off-8 < n {
			return bail("record length exceeds file")
		}
		payload := raw[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return bail("record checksum mismatch")
		}
		var kind byte
		var derr error
		if batch, kind, derr = decodeRecord(payload, batch); derr != nil {
			return bail("undecodable record")
		}
		off += 8 + n
		if kind == walOpComplete {
			return int64(off), true, nil
		}
		if apply != nil {
			for _, op := range batch {
				if err := apply(op); err != nil {
					return int64(off), false, err
				}
			}
		}
	}
}

// findRecordAfter searches raw from offset from for any fully
// checksummed, decodable record, returning its offset or -1. It is the
// torn-tail/mid-log-corruption discriminator: only damage with a valid
// record after it can have swallowed acknowledged writes. A coincident
// CRC match inside torn garbage has probability 2^-32 per offset; the
// suffix after a genuine torn tail is at most one flush, so the false-
// positive risk is negligible.
func findRecordAfter(raw []byte, from int) int {
	if from < 0 {
		from = 0
	}
	var scratch []BatchOp
	for off := from; off <= len(raw)-8; off++ {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if n < 0 || len(raw)-off-8 < n {
			continue
		}
		payload := raw[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[off+4:]) {
			continue
		}
		var err error
		if scratch, _, err = decodeRecord(payload, scratch); err != nil {
			continue
		}
		return off
	}
	return -1
}

// --- open / replay -----------------------------------------------------

func walSegName(seq uint64) string  { return fmt.Sprintf("%s%012d%s", walSegPrefix, seq, walSuffix) }
func walSnapName(seq uint64) string { return fmt.Sprintf("%s%012d%s", walSnapPrefix, seq, walSuffix) }

func parseSeq(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(walSuffix)], "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// load rebuilds the index: newest complete snapshot first, then every
// segment with a higher sequence, oldest first. Segments at or below the
// snapshot's sequence are already folded into it — a compaction crash
// can leave them behind, and replaying them over the snapshot would
// resurrect deleted objects — so they are skipped and re-deleted.
func (s *WALStore) load() error {
	entries, err := s.ops.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segs, snaps []uint64
	var stale []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), walSegPrefix); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), walSnapPrefix); ok {
			snaps = append(snaps, seq)
		}
		// A compaction crash between writing and renaming the snapshot
		// leaves its .tmp behind; nothing ever references it again.
		if strings.HasPrefix(e.Name(), walSnapPrefix) && strings.HasSuffix(e.Name(), ".tmp") {
			stale = append(stale, e.Name())
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	apply := func(op BatchOp) error {
		if op.Delete {
			delete(s.index, op.ID)
			return nil
		}
		s.index[op.ID] = append([]byte(nil), op.Data...)
		return nil
	}

	// Newest snapshot whose completion marker reached the disk wins;
	// torn snapshots (compaction crash) are ignored and deleted.
	var snapSeq uint64
	for k := len(snaps) - 1; k >= 0; k-- {
		if snapSeq != 0 {
			stale = append(stale, walSnapName(snaps[k]))
			continue
		}
		_, complete, err := scanRecords(s.ops, filepath.Join(s.dir, walSnapName(snaps[k])), apply)
		if err != nil {
			return err
		}
		if complete {
			snapSeq = snaps[k]
		} else {
			// Partial replay of a torn snapshot: clear and fall back.
			clear(s.index)
			stale = append(stale, walSnapName(snaps[k]))
		}
	}

	// Replay segments above the snapshot, tracking which objects' current
	// record lives in a segment so the garbage count is exact.
	maxSeq := snapSeq
	replayed := 0
	segLive := make(map[ID]struct{})
	segApply := func(op BatchOp) error {
		replayed++
		if op.Delete {
			delete(segLive, op.ID)
		} else {
			segLive[op.ID] = struct{}{}
		}
		return apply(op)
	}
	for _, seq := range segs {
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq <= snapSeq {
			stale = append(stale, walSegName(seq)) // compaction crash leftover
			continue
		}
		if _, _, err := scanRecords(s.ops, filepath.Join(s.dir, walSegName(seq)), segApply); err != nil {
			return err
		}
	}
	for _, name := range stale {
		if err := s.ops.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}

	// Open a fresh active segment after the newest existing sequence. The
	// previous active segment (possibly with a torn tail) is left closed;
	// replay already ignores its tail, and compaction will collect it.
	s.activeSeq = maxSeq + 1
	f, err := s.ops.OpenFile(filepath.Join(s.dir, walSegName(s.activeSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.activeSize = 0
	s.records = replayed
	s.garbage = replayed - len(segLive)
	s.segIDs = segLive
	return s.syncDir()
}

// syncDir fsyncs the store directory so file creations, renames and
// removals survive power loss (honouring SetSync).
func (s *WALStore) syncDir() error {
	if !s.sync {
		return nil
	}
	return s.ops.SyncDir(s.dir)
}

// --- Store implementation ---------------------------------------------

// Read implements Store.
func (s *WALStore) Read(id ID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.index[id]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", id, ErrNotFound)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Write implements Store.
func (s *WALStore) Write(id ID, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return s.commit([]BatchOp{{ID: id, Data: cp}}, false)
}

// Delete implements Store.
func (s *WALStore) Delete(id ID) error {
	s.mu.Lock()
	// Existence as of serialisation order: the index plus every op that
	// is committed-but-unapplied (inflight) or queued ahead of us.
	_, ok := s.index[id]
	for _, batch := range [][]*walCommit{s.inflight, s.queue} {
		for _, c := range batch {
			for _, op := range c.ops {
				if op.ID == id {
					ok = !op.Delete
				}
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("delete %s: %w", id, ErrNotFound)
	}
	return s.commit([]BatchOp{{ID: id, Delete: true}}, false)
}

// ApplyBatch implements Batcher: the whole batch is appended as one
// record and made durable with a single fsync.
func (s *WALStore) ApplyBatch(ops []BatchOp) error {
	return s.applyBatch(ops, false)
}

// ApplyBatchLazy implements LazyBatcher: the batch is appended and
// applied without its own fsync; durability rides on the next synced
// append.
func (s *WALStore) ApplyBatchLazy(ops []BatchOp) error {
	return s.applyBatch(ops, true)
}

func (s *WALStore) applyBatch(ops []BatchOp, lazy bool) error {
	if len(ops) == 0 {
		return nil
	}
	cps := make([]BatchOp, len(ops))
	for i, op := range ops {
		cps[i] = op
		if !op.Delete {
			cps[i].Data = append([]byte(nil), op.Data...)
		}
	}
	return s.commit(cps, lazy)
}

// List implements Store.
func (s *WALStore) List(prefix ID) ([]ID, error) {
	s.mu.Lock()
	var out []ID
	for id := range s.index {
		if strings.HasPrefix(string(id), string(prefix)) {
			out = append(out, id)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// commit queues the encoded batch and joins the group commit: the first
// committer to arrive while no flush is active becomes the leader,
// takes flushMu, and drains the queue — one write + one fsync per
// drain — until it is empty; everyone else just waits on their done
// channel and finds their batch made durable by a leader's drain. A
// lazy commit waives its own fsync (see walCommit.lazy).
func (s *WALStore) commit(ops []BatchOp, lazy bool) error {
	c := &walCommit{buf: encodeBatch(nil, ops), ops: ops, done: make(chan error, 1), lazy: lazy}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("wal store %s is closed", s.dir)
	}
	s.queue = append(s.queue, c)
	leader := !s.flushing
	s.flushing = true
	s.mu.Unlock()
	if !leader {
		return <-c.done
	}

	// flushMu (not the flushing flag) is what serialises against
	// Compact and Close: they may hold it while the leader claim is
	// made, so the claim and the lock are taken in two steps.
	s.flushMu.Lock()
	for {
		s.mu.Lock()
		q := s.queue
		s.queue = nil
		if len(q) == 0 {
			s.flushing = false
			s.mu.Unlock()
			break
		}
		s.inflight = q
		s.mu.Unlock()
		if err := s.appendLocked(q); err == nil {
			// A failed compaction must not fail the (already durable)
			// commit: it costs disk space, not data. Kept for CompactErr
			// and retried at the next threshold crossing.
			if cerr := s.maybeCompactLocked(); cerr != nil {
				s.compactErr.Store(&cerr)
			}
		}
	}
	s.flushMu.Unlock()
	return <-c.done
}

// CompactErr returns the error of the most recent failed automatic
// compaction, if any (diagnostics).
func (s *WALStore) CompactErr() error {
	if p := s.compactErr.Load(); p != nil {
		return *p
	}
	return nil
}

// appendLocked writes and fsyncs the queued batches (flushMu held), then
// applies them to the index and signals the waiters. The index mutates
// only after the records are durable, so a reader never observes state a
// crash could take back. A failed write is truncated away so no torn
// record ends up in the middle of the segment; if that rollback (or an
// fsync) fails, the store wedges rather than append acknowledged records
// after bytes replay would discard.
func (s *WALStore) appendLocked(q []*walCommit) error {
	if len(q) == 0 {
		return nil
	}
	var err error
	if w := s.Wedged(); w != nil {
		err = w
	}
	start := s.activeSize
	if err == nil {
		for _, c := range q {
			var n int
			if n, err = s.f.Write(c.buf); err != nil {
				err = fmt.Errorf("wal append: %w", err)
				break
			}
			s.activeSize += int64(n)
		}
		if err != nil {
			// Roll the whole flush back (every waiter in q fails together).
			// A successful rollback keeps the store healthy: a write
			// failure with a clean truncate (the ENOSPC case) is
			// retryable, not fatal. Only an unrollable tear wedges.
			if terr := s.f.Truncate(start); terr != nil {
				err = s.wedge(fmt.Errorf("%v; rollback truncate failed: %v", err, terr))
			} else {
				s.activeSize = start
			}
		}
	}
	if err == nil && s.sync && !allLazy(q) {
		var fsyncStart time.Time
		if s.metClk != nil {
			fsyncStart = s.metClk.Now()
		}
		if serr := s.f.Sync(); serr != nil {
			// Post-failure page-cache state is undefined; fail-stop.
			// Never retry-assume-durable: the wedge is permanent until
			// the store is reopened from what provably reached disk.
			err = s.wedge(fmt.Errorf("wal sync: %v", serr))
		}
		s.syncs.Add(1)
		s.metFsyncs.Inc()
		if s.metClk != nil {
			s.metFsyncSeconds.ObserveSince(s.metClk, fsyncStart)
		}
	}
	s.mu.Lock()
	if err == nil {
		for _, c := range q {
			for _, op := range c.ops {
				s.records++
				if op.Delete {
					if _, ok := s.segIDs[op.ID]; ok {
						delete(s.segIDs, op.ID)
						s.garbage++ // the segment-resident victim record
					}
					delete(s.index, op.ID)
					s.garbage++ // the delete record itself
				} else {
					if _, ok := s.segIDs[op.ID]; ok {
						s.garbage++ // the superseded segment record
					}
					s.segIDs[op.ID] = struct{}{}
					s.index[op.ID] = op.Data
				}
			}
		}
	}
	s.inflight = nil
	s.mu.Unlock()
	if err == nil {
		// Batches vs ops: their ratio is the group-commit coalescing
		// factor (ops per durable batch drain).
		s.metCommitBatches.Add(int64(len(q)))
		var nops int64
		for _, c := range q {
			nops += int64(len(c.ops))
		}
		s.metCommitOps.Add(nops)
	}
	for _, c := range q {
		c.done <- err
	}
	return err
}

// maybeCompactLocked rotates oversized active segments and compacts once
// garbage crosses the threshold (flushMu held).
func (s *WALStore) maybeCompactLocked() error {
	s.mu.Lock()
	garbage := s.garbage
	threshold := s.compactThreshold
	s.mu.Unlock()
	if garbage >= threshold {
		return s.compactLocked()
	}
	if s.activeSize >= s.maxSegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// rotateLocked closes the active segment and starts the next one.
func (s *WALStore) rotateLocked() error {
	if err := s.f.Close(); err != nil {
		return err
	}
	s.activeSeq++
	f, err := s.ops.OpenFile(filepath.Join(s.dir, walSegName(s.activeSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.activeSize = 0
	return s.syncDir()
}

// Compact folds everything up to and including the current active
// segment into a snapshot and deletes the superseded files. Called
// automatically past the garbage threshold; exported for tests and
// operational tooling.
func (s *WALStore) Compact() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.compactLocked()
}

// compactLocked (flushMu held) writes snap-<S> containing every live
// object plus the completion marker, fsyncs it, then removes segments
// <= S and older snapshots. Crash ordering: the snapshot is ignored
// until its marker is durable; stale segments that outlive a crash are
// skipped (not replayed) and deleted by the next open.
func (s *WALStore) compactLocked() error {
	// Seal the active segment; the snapshot covers sequences <= snapSeq.
	snapSeq := s.activeSeq
	if err := s.rotateLocked(); err != nil {
		return err
	}

	s.mu.Lock()
	live := make([]BatchOp, 0, len(s.index))
	ids := make([]ID, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		live = append(live, BatchOp{ID: id, Data: s.index[id]})
	}
	s.mu.Unlock()

	tmp := filepath.Join(s.dir, walSnapName(snapSeq)+".tmp")
	f, err := s.ops.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf []byte
	for k := range live {
		buf = encodeBatch(buf[:0], live[k:k+1])
		if _, err := f.Write(buf); err != nil {
			_ = f.Close()
			_ = s.ops.Remove(tmp)
			return fmt.Errorf("write snapshot: %w", err)
		}
	}
	buf = appendRecord(buf[:0], []byte{walOpComplete})
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		_ = s.ops.Remove(tmp)
		return fmt.Errorf("write snapshot: %w", err)
	}
	if s.sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			_ = s.ops.Remove(tmp)
			return fmt.Errorf("sync snapshot: %w", err)
		}
		s.syncs.Add(1)
		s.metFsyncs.Inc()
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.ops.Rename(tmp, filepath.Join(s.dir, walSnapName(snapSeq))); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}

	// The snapshot is authoritative: drop superseded files.
	entries, err := s.ops.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), walSegPrefix); ok && seq <= snapSeq {
			if err := s.ops.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if seq, ok := parseSeq(e.Name(), walSnapPrefix); ok && seq < snapSeq {
			if err := s.ops.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.mu.Lock()
	s.records = 0
	s.garbage = 0
	// Every live record now resides in the snapshot.
	clear(s.segIDs)
	s.mu.Unlock()
	return nil
}
