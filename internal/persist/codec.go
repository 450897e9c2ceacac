package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/registry"
)

// On-disk record format.
//
// A state image is either a codec record or a legacy gob stream. A codec
// record starts with one version byte in [versionLo, versionHi] followed
// by the fields the value's AppendRecord wrote. No gob stream can start
// in that range: gob opens with the first message's length, an unsigned
// gob integer whose first byte is 0x00–0x7F (a one-byte value) or
// 0xF8–0xFF (a negated byte count). Decode routes on the first byte: the
// known version goes to ReadRecord, any other byte in the range is
// ErrRecordVersion, and everything else decodes as gob, so states
// written before the codec existed still read back.

const (
	versionLo = 0x80
	versionHi = 0xF7
	// recordV1 is the layout every codec record is written with today.
	recordV1 = 0x80
)

// ErrRecordVersion is returned by Decode for a record whose version byte
// lies in the codec range but names no layout this tree knows.
var ErrRecordVersion = errors.New("unknown record version")

// Record is implemented by durable values with a hand-written binary
// layout. AppendRecord appends the fields (without the version byte,
// which Encode writes) and may have a value receiver; ReadRecord
// replaces every field of the receiver from them. It is deliberately not
// encoding.BinaryMarshaler: gob would pick that up on the orb wire.
type Record interface {
	AppendRecord(dst []byte) ([]byte, error)
	ReadRecord(data []byte) error
}

// recordAppender is the encode half of Record, which value types meet.
type recordAppender interface {
	AppendRecord(dst []byte) ([]byte, error)
}

// Encode returns the state image of v: a codec record when v implements
// AppendRecord, else a gob stream.
func Encode(v any) ([]byte, error) {
	if r, ok := v.(recordAppender); ok {
		// 256 bytes hold a run state with a small payload in one allocation.
		data, err := r.AppendRecord(append(make([]byte, 0, 256), recordV1))
		if err != nil {
			return nil, fmt.Errorf("encode state: %w", err)
		}
		return data, nil
	}
	return gobEncode(v)
}

// Decode reads a state image written by Encode, by this tree or an
// older one, into v.
func Decode(data []byte, v any) error {
	if len(data) == 0 || data[0] < versionLo || data[0] > versionHi {
		return gobDecode(data, v)
	}
	if data[0] != recordV1 {
		return fmt.Errorf("decode state: %w 0x%02x", ErrRecordVersion, data[0])
	}
	r, ok := v.(Record)
	if !ok {
		return fmt.Errorf("decode state: codec record into %T", v)
	}
	if err := r.ReadRecord(data[1:]); err != nil {
		return fmt.Errorf("decode state: %w", err)
	}
	return nil
}

// gobEncode and gobDecode are the legacy and fallback format: whole
// states of types without a codec, and single application values inside
// codec records (tagGob).
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encode state: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	if err := checkGobFrames(data); err != nil {
		return fmt.Errorf("decode state: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("decode state: %w", err)
	}
	return nil
}

// checkGobFrames rejects a gob stream whose message lengths overrun the
// data, before gob sizes a read buffer from them.
func checkGobFrames(data []byte) error {
	for len(data) > 0 {
		var n uint64
		if b := data[0]; b < 0x80 {
			n, data = uint64(b), data[1:]
		} else {
			w := 256 - int(b) // 0xFF is one byte, 0xF8 eight
			if w > 8 || w >= len(data) {
				return errors.New("gob: bad message length")
			}
			for _, c := range data[1 : 1+w] {
				n = n<<8 | uint64(c)
			}
			data = data[1+w:]
		}
		if n > uint64(len(data)) {
			return errors.New("gob: message length exceeds data")
		}
		data = data[n:]
	}
	return nil
}

// Value tags of registry.Objects entries: the payload types the engine
// registers with gob, plus a per-value gob fallback for application
// types.
const (
	tagNil = iota
	tagString
	tagInt
	tagInt64
	tagFloat64
	tagFalse
	tagTrue
	tagBytes
	tagStrings
	tagStringMap
	tagTime
	tagGob
)

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendInt64 appends v as a zig-zag varint.
func AppendInt64(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendLen appends a collection length as an unsigned varint.
func AppendLen(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendString appends s with its length.
func AppendString(b []byte, s string) []byte {
	return append(AppendLen(b, len(s)), s...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime appends t in its MarshalBinary form, as gob carries it.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	at := len(b)
	b, err := t.AppendBinary(append(b, 0))
	if err != nil {
		return nil, err
	}
	b[at] = byte(len(b) - at - 1) // 15 or 16 bytes
	return b, nil
}

// sortedKeys returns m's keys in order, in buf when they fit, so a
// record's bytes depend only on its value.
func sortedKeys[V any](m map[string]V, buf []string) []string {
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// AppendBoolMap appends m, keeping nil apart from empty.
func AppendBoolMap(b []byte, m map[string]bool) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = AppendLen(b, len(m)+1)
	var buf [8]string
	for _, k := range sortedKeys(m, buf[:]) {
		b = AppendBool(AppendString(b, k), m[k])
	}
	return b
}

// AppendObjects appends o, keeping nil apart from empty. Each value is
// its class plus a type tag over the closed set of payload types; any
// other payload falls back to a gob tag and must be gob-registered, as
// before.
func AppendObjects(b []byte, o registry.Objects) ([]byte, error) {
	if o == nil {
		return append(b, 0), nil
	}
	b = AppendLen(b, len(o)+1)
	var buf [8]string
	var err error
	for _, k := range sortedKeys(o, buf[:]) {
		v := o[k]
		b = AppendString(AppendString(b, k), v.Class)
		if b, err = appendData(b, v.Data); err != nil {
			return nil, fmt.Errorf("object %s: %w", k, err)
		}
	}
	return b, nil
}

// gobBox carries one fallback payload so gob records its concrete type.
type gobBox struct{ V any }

func appendData(b []byte, data any) ([]byte, error) {
	switch d := data.(type) {
	case nil:
		return append(b, tagNil), nil
	case string:
		return AppendString(append(b, tagString), d), nil
	case int:
		return AppendInt(append(b, tagInt), d), nil
	case int64:
		return AppendInt64(append(b, tagInt64), d), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(d)), nil
	case bool:
		if d {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case []byte:
		return append(AppendLen(append(b, tagBytes), len(d)), d...), nil
	case []string:
		b = AppendLen(append(b, tagStrings), len(d))
		for _, s := range d {
			b = AppendString(b, s)
		}
		return b, nil
	case map[string]string:
		b = AppendLen(append(b, tagStringMap), len(d))
		var buf [8]string
		for _, k := range sortedKeys(d, buf[:]) {
			b = AppendString(AppendString(b, k), d[k])
		}
		return b, nil
	case time.Time:
		return AppendTime(append(b, tagTime), d)
	default:
		enc, err := gobEncode(&gobBox{V: data})
		if err != nil {
			return nil, err
		}
		return append(AppendLen(append(b, tagGob), len(enc)), enc...), nil
	}
}

// RecordReader reads the fields of one codec record in the order they
// were appended. The first malformed field makes it sticky-failed: every
// later read returns a zero value and Finish reports the error. Lengths
// are checked against the bytes left before anything is allocated.
type RecordReader struct {
	buf []byte
	err error
}

// NewRecordReader returns a reader over data.
func NewRecordReader(data []byte) RecordReader { return RecordReader{buf: data} }

// Finish reports the first error, or trailing bytes nothing read.
func (r *RecordReader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *RecordReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

func (r *RecordReader) readByte() byte {
	if len(r.buf) == 0 {
		r.fail(errors.New("record truncated"))
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// Int64 reads a value written by AppendInt64.
func (r *RecordReader) Int64() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(errors.New("bad varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a value written by AppendInt.
func (r *RecordReader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.fail(errors.New("varint overflows int"))
		return 0
	}
	return int(v)
}

func (r *RecordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(errors.New("bad varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count returns n if n elements of at least minSize bytes each fit in
// the bytes left, and fails otherwise.
func (r *RecordReader) count(n uint64, minSize int) int {
	if n > uint64(len(r.buf)/minSize) {
		r.fail(fmt.Errorf("length %d overruns the %d bytes left", n, len(r.buf)))
		return 0
	}
	return int(n)
}

// Len reads a length written by AppendLen for a collection whose
// elements take at least minSize bytes each, failing when the bytes
// left cannot hold that many.
func (r *RecordReader) Len(minSize int) int { return r.count(r.uvarint(), minSize) }

// nilableLen reads a length written as len+1, with 0 for nil.
func (r *RecordReader) nilableLen(minSize int) (n int, isNil bool) {
	v := r.uvarint()
	if v == 0 {
		return 0, true
	}
	return r.count(v-1, minSize), false
}

func (r *RecordReader) bytes() []byte {
	n := r.Len(1)
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Str reads a value written by AppendString. (Not String: a reader
// must not satisfy fmt.Stringer, or printing it would consume a field.)
func (r *RecordReader) Str() string { return string(r.bytes()) }

// Bool reads a value written by AppendBool.
func (r *RecordReader) Bool() bool {
	switch r.readByte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errors.New("bad bool"))
	return false
}

// Time reads a value written by AppendTime.
func (r *RecordReader) Time() time.Time {
	var t time.Time
	if err := t.UnmarshalBinary(r.bytes()); err != nil {
		r.fail(err)
		return time.Time{}
	}
	return t
}

// BoolMap reads a value written by AppendBoolMap.
func (r *RecordReader) BoolMap() map[string]bool {
	n, isNil := r.nilableLen(2)
	if isNil {
		return nil
	}
	m := make(map[string]bool, n)
	for j := 0; j < n && r.err == nil; j++ {
		k := r.Str()
		m[k] = r.Bool()
	}
	return m
}

// Objects reads a value written by AppendObjects.
func (r *RecordReader) Objects() registry.Objects {
	n, isNil := r.nilableLen(3)
	if isNil {
		return nil
	}
	o := make(registry.Objects, n)
	for j := 0; j < n && r.err == nil; j++ {
		k := r.Str()
		class := r.Str()
		o[k] = registry.Value{Class: class, Data: r.data()}
	}
	return o
}

// data reads one tagged payload. Where gob normalises (empty byte and
// string slices arrive nil, string maps arrive non-nil), so does this.
func (r *RecordReader) data() any {
	switch tag := r.readByte(); tag {
	case tagNil:
		return nil
	case tagString:
		return r.Str()
	case tagInt:
		return r.Int()
	case tagInt64:
		return r.Int64()
	case tagFloat64:
		if len(r.buf) < 8 {
			r.fail(errors.New("record truncated"))
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
		r.buf = r.buf[8:]
		return v
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagBytes:
		if b := r.bytes(); len(b) > 0 {
			return bytes.Clone(b)
		}
		return []byte(nil)
	case tagStrings:
		n := r.Len(1)
		if n == 0 {
			return []string(nil)
		}
		ss := make([]string, n)
		for j := range ss {
			ss[j] = r.Str()
		}
		return ss
	case tagStringMap:
		n := r.Len(2)
		m := make(map[string]string, n)
		for j := 0; j < n && r.err == nil; j++ {
			k := r.Str()
			m[k] = r.Str()
		}
		return m
	case tagTime:
		return r.Time()
	case tagGob:
		var box gobBox
		if err := gobDecode(r.bytes(), &box); err != nil {
			r.fail(err)
			return nil
		}
		return box.V
	default:
		r.fail(fmt.Errorf("bad value tag %d", tag))
		return nil
	}
}
