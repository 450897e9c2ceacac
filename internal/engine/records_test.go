package engine

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/registry"
)

// appPayload stands in for an application payload type outside the
// codec's closed set: it rides the per-value gob fallback.
type appPayload struct {
	Name string
	N    []int
}

func init() { gob.Register(appPayload{}) }

var recAt = time.Date(2026, 1, 1, 0, 0, 5, 0, time.UTC)

// sampleRunState is a diamond(4) stage state as the engine writes it at
// completion: one input, one terminal output carrying the payload.
func sampleRunState() runState {
	payload := registry.Objects{"in": {Class: "Data", Data: strings.Repeat("p", 64)}}
	return runState{
		Path: "diamond/t2", State: RunCompleted, ChosenSet: "main", Inputs: payload,
		Outputs: []OutputRec{{Output: "done", Kind: core.Outcome, Objects: registry.Objects{"out": payload["in"]}, At: recAt}},
		Attempt: 1,
	}
}

func sampleMeta() instanceMeta {
	return instanceMeta{
		ID: "inst-1", SchemaName: "diamond", SchemaSource: strings.Repeat("task t of taskclass T;\n", 20),
		RootName: "diamond", Started: true, StartSet: "main",
		StartInputs: registry.Objects{"seed": {Class: "Data", Data: "seed"}}, TraceID: "0123456789abcdef",
	}
}

func sampleDelay() delayRec {
	return delayRec{Path: "app/t2", Deadline: recAt.Add(10 * time.Second), Iteration: 2}
}

// edgeObjects holds every payload type of the closed set, the values gob
// normalises, and one fallback value.
func edgeObjects() registry.Objects {
	return registry.Objects{
		"nil": {Class: "C"}, "str": {Data: ""}, "int": {Data: -3}, "i64": {Data: int64(1) << 40},
		"f64": {Data: 2.5}, "t": {Data: true}, "f": {Data: false},
		"bytes": {Data: []byte{0, 1}}, "nobytes": {Data: []byte{}}, "nilbytes": {Data: []byte(nil)},
		"strs": {Data: []string{"", "a"}}, "nostrs": {Data: []string{}},
		"map": {Data: map[string]string{"b": "2", "a": "1"}}, "nomap": {Data: map[string]string(nil)},
		"time": {Data: recAt}, "zerotime": {Data: time.Time{}},
		"zone":  {Data: time.Date(2026, 3, 4, 5, 6, 7, 8, time.FixedZone("X", 5*3600+30*60))},
		"local": {Data: time.Date(2026, 3, 4, 5, 6, 7, 8, time.Local)},
		"app":   {Class: "App", Data: appPayload{Name: "x", N: []int{1, 2}}},
	}
}

// recordCases pairs each codec record with the edge values that decide
// whether it reads back as gob would read it.
func recordCases() []persist.Record {
	full := sampleRunState()
	full.Inputs = edgeObjects()
	full.Outputs = append(full.Outputs, OutputRec{Output: "m", Kind: core.Mark, Objects: registry.Objects{}})
	full.LastRepeat = &OutputRec{}
	full.MarksEmitted = map[string]bool{"m": true, "n": false}
	empty := runState{Inputs: registry.Objects{}, Outputs: []OutputRec{}, MarksEmitted: map[string]bool{}}
	meta := sampleMeta()
	meta.StartInputs = edgeObjects()
	zone := sampleDelay()
	zone.Deadline = zone.Deadline.In(time.FixedZone("Y", -7*3600))
	s, m, d := sampleRunState(), sampleMeta(), sampleDelay()
	return []persist.Record{&s, &full, &empty, &runState{}, &m, &meta, &instanceMeta{}, &d, &zone, &delayRec{}}
}

func gobRoundTrip(t testing.TB, v any, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := persist.Decode(buf.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

// TestRecordCodecReadsBackAsGob: every record reads back from the codec
// exactly as it reads back from a legacy gob record: nil against empty
// maps and slices, time zones, every payload type.
func TestRecordCodecReadsBackAsGob(t *testing.T) {
	for i, rec := range recordCases() {
		data, err := persist.Encode(rec)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if data[0] < 0x80 || data[0] > 0xF7 {
			t.Fatalf("case %d: version byte %#x outside the codec range", i, data[0])
		}
		viaCodec := reflect.New(reflect.TypeOf(rec).Elem()).Interface()
		if err := persist.Decode(data, viaCodec); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		viaGob := reflect.New(reflect.TypeOf(rec).Elem()).Interface()
		gobRoundTrip(t, rec, viaGob)
		if !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("case %d: codec read back\n%#v\ngob read back\n%#v", i, viaCodec, viaGob)
		}
		again, err := persist.Encode(viaCodec)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("case %d: re-encoding differs (%v)", i, err)
		}
	}
}

// fuzzRecordDecode is the body of the FuzzRecordDecode targets: decoding
// arbitrary bytes never panics, and decode → encode → decode is a fixed
// point. Bytes outside the codec's version range go to gob's own decoder,
// which is not this codec's to fuzz.
func fuzzRecordDecode[T any, P interface {
	*T
	persist.Record
}](f *testing.F, seeds ...T) {
	for _, s := range seeds {
		data, err := persist.Encode(P(&s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] < 0x80 || data[0] > 0xF7 {
			return
		}
		var v1, v2 T
		if persist.Decode(data, P(&v1)) != nil {
			return
		}
		b1, err := persist.Encode(P(&v1))
		if err != nil {
			return // decoded, but not representable again (a time zone offset out of range)
		}
		if err := persist.Decode(b1, P(&v2)); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		b2, err := persist.Encode(P(&v2))
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		// Bytes equal covers NaN payloads; DeepEqual covers fallback
		// values whose gob encoding orders a map differently each time.
		if !bytes.Equal(b1, b2) && !reflect.DeepEqual(v1, v2) {
			t.Fatalf("not a fixed point:\n%#v\n%#v", v1, v2)
		}
	})
}

func FuzzRecordDecodeRunState(f *testing.F) {
	full := *recordCases()[1].(*runState)
	fuzzRecordDecode(f, sampleRunState(), full, runState{})
}

func FuzzRecordDecodeMeta(f *testing.F) {
	fuzzRecordDecode(f, sampleMeta(), instanceMeta{})
}

func FuzzRecordDecodeDelay(f *testing.F) {
	fuzzRecordDecode(f, sampleDelay(), delayRec{})
}

// BenchmarkRecordCodec prices one record write and one read, legacy gob
// (a fresh encoder or decoder per record, as persist used to) against
// the codec.
func BenchmarkRecordCodec(b *testing.B) {
	s, m, d := sampleRunState(), sampleMeta(), sampleDelay()
	for _, c := range []struct {
		name string
		rec  persist.Record
	}{{"runState", &s}, {"instanceMeta", &m}, {"delayRec", &d}} {
		var legacy bytes.Buffer
		if err := gob.NewEncoder(&legacy).Encode(c.rec); err != nil {
			b.Fatal(err)
		}
		data, err := persist.Encode(c.rec)
		if err != nil {
			b.Fatal(err)
		}
		out := reflect.New(reflect.TypeOf(c.rec).Elem()).Interface()
		b.Run(c.name+"/gob-encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(legacy.Len()))
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(c.rec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/gob-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(legacy.Len()))
			for i := 0; i < b.N; i++ {
				if err := gob.NewDecoder(bytes.NewReader(legacy.Bytes())).Decode(out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/codec-encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := persist.Encode(c.rec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/codec-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := persist.Decode(data, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
