package store

import (
	"bytes"
	"testing"
)

// FuzzWALRecord feeds arbitrary payloads to the segment record decoder,
// framed with a valid checksum so the decoder itself (not the CRC) is
// what the fuzzer explores, and the raw bytes as a whole segment so the
// framing is explored too. Neither may panic; a record that decodes must
// re-encode to the same payload; a record that does not decode must
// apply no op. The checked-in corpus (testdata/fuzz/FuzzWALRecord) holds
// a whole batch, a batch torn mid-op, an inner length past the record
// end, an empty batch and an unknown kind.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var applied int
		_, _, err := scanBytes(appendRecord(nil, payload), "fuzz", func(BatchOp) error {
			applied++
			return nil
		})
		ops, kind, derr := decodeRecord(payload, nil)
		switch {
		case derr == nil && err != nil:
			t.Fatalf("record decodes but the scan failed: %v", err)
		case derr != nil:
			if applied != 0 {
				t.Fatalf("undecodable record applied %d ops: %v", applied, derr)
			}
		case applied != len(ops):
			t.Fatalf("decoded %d ops, scan applied %d", len(ops), applied)
		default:
			if re := reencode(kind, ops); !bytes.Equal(re, payload) {
				t.Fatalf("kind %q re-encodes to %x, want %x", kind, re, payload)
			}
		}
		_, _, _ = scanBytes(payload, "fuzz", nil)
	})
}

// reencode is the encoder's half of the round trip for one decoded
// record.
func reencode(kind byte, ops []BatchOp) []byte {
	switch kind {
	case walOpBatch:
		return appendBatchPayload(nil, ops)
	case walOpComplete:
		return []byte{walOpComplete}
	default:
		return appendOpPayload(nil, ops[0], false)
	}
}
