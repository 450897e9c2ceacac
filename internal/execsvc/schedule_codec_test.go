package execsvc_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/execsvc"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/workload"
)

func sampleSchedule() execsvc.Schedule {
	return execsvc.Schedule{
		Name: "nightly", Schema: "chain", Set: "main", Inputs: workload.Seed(),
		After: time.Second, Every: 10 * time.Second, MaxRuns: 3,
		NextAt: schedEpoch.Add(20 * time.Second), Fired: 1, LastErr: "run 1: boom",
	}
}

// TestScheduleLegacyGobRecord: a schedule persisted as gob, before the
// record codec, is recovered and fires; the next persist rewrites it as
// a codec record.
func TestScheduleLegacyGobRecord(t *testing.T) {
	st := store.NewMemStore()
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&execsvc.Schedule{
		Name: "legacy", Schema: "chain", Set: "main", Inputs: workload.Seed(),
		MaxRuns: 1, NextAt: schedEpoch.Add(5 * time.Second),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Write("sched/legacy", legacy.Bytes()); err != nil {
		t.Fatal(err)
	}
	rig := newSchedRig(t, st, timers.NewFakeClock(schedEpoch))
	if n, err := rig.sched.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v; want the one legacy schedule", n, err)
	}
	rig.clock.Advance(5 * time.Second)
	rig.waitFired(t, "legacy", 1)
	rig.waitCompleted(t, "legacy-1")
	data, err := st.Read("sched/legacy")
	if err != nil {
		t.Fatal(err)
	}
	var e execsvc.Schedule
	if data[0] != 0x80 || persist.Decode(data, &e) != nil || !e.Done || e.Fired != 1 {
		t.Fatalf("rewritten record %#x… = %+v, want a done codec record", data[0], e)
	}
}

// TestScheduleCodecReadsBackAsGob: a schedule reads back from the codec
// exactly as from gob.
func TestScheduleCodecReadsBackAsGob(t *testing.T) {
	for _, s := range []execsvc.Schedule{sampleSchedule(), {Inputs: registry.Objects{}}, {}} {
		data, err := persist.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		var viaCodec, viaGob execsvc.Schedule
		if err := persist.Decode(data, &viaCodec); err != nil {
			t.Fatal(err)
		}
		var legacy bytes.Buffer
		if err := gob.NewEncoder(&legacy).Encode(s); err != nil {
			t.Fatal(err)
		}
		if err := persist.Decode(legacy.Bytes(), &viaGob); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("codec read back %+v, gob %+v", viaCodec, viaGob)
		}
	}
}

// FuzzRecordDecodeSchedule: arbitrary codec-range bytes never panic,
// and decode → encode → decode is a fixed point (see the engine's
// FuzzRecordDecode targets; gob-range bytes are gob's to fuzz).
func FuzzRecordDecodeSchedule(f *testing.F) {
	for _, s := range []execsvc.Schedule{sampleSchedule(), {}} {
		data, err := persist.Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] < 0x80 || data[0] > 0xF7 {
			return
		}
		var v1, v2 execsvc.Schedule
		if persist.Decode(data, &v1) != nil {
			return
		}
		b1, err := persist.Encode(v1)
		if err != nil {
			return // decoded, but not representable again (a time zone offset out of range)
		}
		if err := persist.Decode(b1, &v2); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		b2, err := persist.Encode(v2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) && !reflect.DeepEqual(v1, v2) {
			t.Fatalf("not a fixed point:\n%#v\n%#v", v1, v2)
		}
	})
}

// BenchmarkRecordCodec prices one schedule record write and read, legacy
// gob against the codec.
func BenchmarkRecordCodec(b *testing.B) {
	s := sampleSchedule()
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&s); err != nil {
		b.Fatal(err)
	}
	data, err := persist.Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	var out execsvc.Schedule
	b.Run("Schedule/gob-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Schedule/gob-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := gob.NewDecoder(bytes.NewReader(legacy.Bytes())).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Schedule/codec-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := persist.Encode(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Schedule/codec-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := persist.Decode(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
