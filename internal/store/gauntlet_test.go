package store_test

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// The crash-consistency gauntlet: record a real multi-thousand-op
// workload's WAL byte stream, then re-materialize it truncated at EVERY
// record boundary, at hundreds of seeded intra-record offsets, and with
// seeded mid-log bit-flips — and reopen each mutation as if the process
// had crashed there. The durability contract under test:
//
//   - no acknowledged write lost: a commit that returned success before
//     the cut is fully present after recovery (a boundary cut at offset
//     recordEnds[k] must recover exactly the first k batches);
//   - a batch is all-or-nothing: a cut anywhere inside a batch's record
//     recovers the state before that whole batch, never a prefix of it;
//   - no resurrection / double-apply: recovery replays exactly the batch
//     prefix the surviving bytes hold, nothing more;
//   - torn tails recover silently (a crash mid-append is normal), while
//     damage WITH valid records after it — a bit-flip mid-log — must
//     fail loudly with store.ErrCorrupt, never silently truncate
//     acknowledged history;
//   - the recovered store is live: it accepts new writes.
//
// The full sweep runs in about a second, so plain `go test` (tier-1)
// covers every boundary; -short samples it. `make gauntlet` and the CI
// gauntlet job run it verbosely and keep the log as the artifact: every
// failure message carries the byte offset and the workload seed — the
// repro is those two numbers.

const gauntletSeed = 20260808

// gop is one recorded workload operation.
type gop struct {
	del  bool
	id   string
	data string
}

// gauntletWorkload builds a seeded ≥1k-op mixed workload (puts,
// overwrites, blind deletes) grouped into engine-style batches.
func gauntletWorkload(seed int64, nops int) [][]gop {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]gop
	total := 0
	for total < nops {
		n := 1 + rng.Intn(6)
		batch := make([]gop, 0, n)
		for j := 0; j < n; j++ {
			id := fmt.Sprintf("inst/g%03d/state", rng.Intn(120))
			if rng.Intn(10) == 0 {
				batch = append(batch, gop{del: true, id: id})
			} else {
				data := make([]byte, rng.Intn(64))
				for k := range data {
					data[k] = byte('a' + rng.Intn(26))
				}
				batch = append(batch, gop{id: id, data: string(data)})
			}
			total++
		}
		batches = append(batches, batch)
	}
	return batches
}

// recordWorkload drives the batches through a WALStore confined to one
// segment and returns the raw segment bytes and the segment file name
// (one WAL record per batch).
func recordWorkload(t *testing.T, batches [][]gop) (raw []byte, segName string) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One segment, no compaction: the sweep wants a single contiguous
	// byte stream whose every prefix is a legal crash state. Sync mode
	// only decides when bytes become durable, not their layout, and the
	// sweep exercises every prefix of the layout regardless.
	s.SetSync(false)
	s.SetMaxSegmentBytes(1 << 30)
	s.SetCompactThreshold(1 << 30)
	for _, batch := range batches {
		bops := make([]store.BatchOp, len(batch))
		for i, op := range batch {
			bops[i] = store.BatchOp{ID: store.ID(op.id), Data: []byte(op.data), Delete: op.del}
		}
		if err := store.ApplyBatch(s, bops); err != nil {
			t.Fatalf("workload batch: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", segs, err)
	}
	raw, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return raw, filepath.Base(segs[0])
}

// recordEnds parses the segment framing ([4B len][4B IEEE CRC][payload],
// big-endian) and returns the byte offset just past each record,
// verifying every CRC on the way and that each batch is one record.
func recordEnds(t *testing.T, raw []byte, batches int) []int64 {
	t.Helper()
	var ends []int64
	off := 0
	for off < len(raw) {
		if off+8 > len(raw) {
			t.Fatalf("trailing %d bytes are not a record header", len(raw)-off)
		}
		n := int(uint32(raw[off])<<24 | uint32(raw[off+1])<<16 | uint32(raw[off+2])<<8 | uint32(raw[off+3]))
		sum := uint32(raw[off+4])<<24 | uint32(raw[off+5])<<16 | uint32(raw[off+6])<<8 | uint32(raw[off+7])
		if off+8+n > len(raw) {
			t.Fatalf("record at %d claims %d bytes past EOF", off, n)
		}
		if crc32.ChecksumIEEE(raw[off+8:off+8+n]) != sum {
			t.Fatalf("record at %d fails its own CRC in the undamaged log", off)
		}
		off += 8 + n
		ends = append(ends, int64(off))
	}
	if len(ends) != batches {
		t.Fatalf("parsed %d records for %d batches (want one record per batch)", len(ends), batches)
	}
	return ends
}

// prefixStates returns states[k] = expected store contents after the
// first k batches.
func prefixStates(batches [][]gop) []map[string]string {
	states := make([]map[string]string, len(batches)+1)
	states[0] = map[string]string{}
	cur := map[string]string{}
	for k, batch := range batches {
		for _, op := range batch {
			if op.del {
				delete(cur, op.id)
			} else {
				cur[op.id] = op.data
			}
		}
		next := make(map[string]string, len(cur))
		for id, d := range cur {
			next[id] = d
		}
		states[k+1] = next
	}
	return states
}

// openMutated materializes the mutated segment bytes in a fresh
// directory and opens a WALStore over it.
func openMutated(t *testing.T, segName string, raw []byte) (*store.WALStore, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return store.NewWALStore(dir)
}

// checkRecovered asserts the reopened store holds exactly want, and is
// live for new writes.
func checkRecovered(t *testing.T, s *store.WALStore, want map[string]string, what string) {
	t.Helper()
	ids, err := s.List("")
	if err != nil {
		t.Fatalf("%s: list: %v", what, err)
	}
	if len(ids) != len(want) {
		t.Errorf("%s: recovered %d keys, want %d", what, len(ids), len(want))
	}
	for _, id := range ids {
		data, err := s.Read(id)
		if err != nil {
			t.Fatalf("%s: read %s: %v", what, id, err)
		}
		wd, ok := want[string(id)]
		if !ok {
			t.Errorf("%s: key %s resurrected (never in the acknowledged prefix)", what, id)
			continue
		}
		if string(data) != wd {
			t.Errorf("%s: key %s = %q, want %q (acknowledged write lost or mangled)", what, id, data, wd)
		}
	}
	s.SetSync(false)
	if err := s.Write("inst/gprobe/state", []byte("alive")); err != nil {
		t.Errorf("%s: recovered store refuses new writes: %v", what, err)
	}
}

// gauntletBudgets picks sweep sizes: the full gauntlet — every record
// boundary, 240 seeded intra-record cuts, 240 seeded bit-flips — runs
// in about a second, so tier-1 `go test` gets the whole thing; -short
// samples it.
func gauntletBudgets(t *testing.T) (stride, cuts, flips int) {
	t.Helper()
	if testing.Short() {
		return 37, 25, 25
	}
	return 1, 240, 240
}

func TestGauntletTruncationSweep(t *testing.T) {
	batches := gauntletWorkload(gauntletSeed, 1100)
	raw, segName := recordWorkload(t, batches)
	ends := recordEnds(t, raw, len(batches))
	states := prefixStates(batches)
	stride, _, _ := gauntletBudgets(t)

	// Every record boundary is a legal crash point: recovery must hold
	// exactly the acknowledged prefix. Boundary 0 (empty log) and the
	// final boundary (clean shutdown) are always swept.
	for k := 0; k <= len(ends); k += stride {
		if k > len(ends) {
			break
		}
		var cut int64
		if k > 0 {
			cut = ends[k-1]
		}
		s, err := openMutated(t, segName, raw[:cut])
		if err != nil {
			t.Fatalf("boundary cut at offset %d (record %d/%d, seed %d): open: %v",
				cut, k, len(ends), gauntletSeed, err)
		}
		checkRecovered(t, s, states[k],
			fmt.Sprintf("boundary cut at offset %d (record %d/%d, seed %d)", cut, k, len(ends), gauntletSeed))
		s.Close()
	}
	if stride > 1 && len(ends)%stride != 0 {
		// The sampled sweep still pins the exact end of the log.
		cut := ends[len(ends)-1]
		s, err := openMutated(t, segName, raw[:cut])
		if err != nil {
			t.Fatalf("final boundary (offset %d, seed %d): open: %v", cut, gauntletSeed, err)
		}
		checkRecovered(t, s, states[len(ends)],
			fmt.Sprintf("final boundary (offset %d, seed %d)", cut, gauntletSeed))
		s.Close()
	}
}

func TestGauntletIntraRecordCuts(t *testing.T) {
	batches := gauntletWorkload(gauntletSeed, 1100)
	raw, segName := recordWorkload(t, batches)
	ends := recordEnds(t, raw, len(batches))
	states := prefixStates(batches)
	_, cuts, _ := gauntletBudgets(t)

	isBoundary := make(map[int64]bool, len(ends)+1)
	isBoundary[0] = true
	for _, e := range ends {
		isBoundary[e] = true
	}
	// lastBoundaryAtOrBelow(cut) = number of fully surviving records.
	surviving := func(cut int64) int {
		k := 0
		for k < len(ends) && ends[k] <= cut {
			k++
		}
		return k
	}

	rng := rand.New(rand.NewSource(gauntletSeed + 1))
	done := 0
	for done < cuts {
		cut := int64(1 + rng.Intn(len(raw)-1))
		if isBoundary[cut] {
			continue
		}
		done++
		k := surviving(cut)
		s, err := openMutated(t, segName, raw[:cut])
		if err != nil {
			t.Fatalf("intra-record cut at offset %d (mid record %d, seed %d): open: %v (a torn tail must recover silently)",
				cut, k, gauntletSeed, err)
		}
		checkRecovered(t, s, states[k],
			fmt.Sprintf("intra-record cut at offset %d (mid record %d, seed %d)", cut, k, gauntletSeed))
		s.Close()
	}
}

func TestGauntletMidLogBitFlips(t *testing.T) {
	batches := gauntletWorkload(gauntletSeed, 1100)
	raw, segName := recordWorkload(t, batches)
	ends := recordEnds(t, raw, len(batches))
	_, _, flips := gauntletBudgets(t)
	if len(ends) < 2 {
		t.Fatal("workload too small for a mid-log flip")
	}

	rng := rand.New(rand.NewSource(gauntletSeed + 2))
	for i := 0; i < flips; i++ {
		// Damage any byte of any record that has a valid record after it
		// ("mid-log"): silent truncation here would drop acknowledged
		// history, so the open must refuse with ErrCorrupt.
		r := rng.Intn(len(ends) - 1)
		var start int64
		if r > 0 {
			start = ends[r-1]
		}
		pos := start + int64(rng.Intn(int(ends[r]-start)))
		bit := byte(1) << rng.Intn(8)

		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[pos] ^= bit

		s, err := openMutated(t, segName, mut)
		if err == nil {
			s.Close()
			t.Fatalf("bit-flip at offset %d (record %d, bit 0x%02x, seed %d): open succeeded; mid-log damage silently swallowed",
				pos, r, bit, gauntletSeed)
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("bit-flip at offset %d (record %d, bit 0x%02x, seed %d): err = %v, want ErrCorrupt",
				pos, r, bit, gauntletSeed, err)
		}
	}
}
