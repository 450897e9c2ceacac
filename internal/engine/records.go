package engine

import (
	"repro/internal/core"
	"repro/internal/persist"
)

// Binary layouts of the engine's durable records (persist.Record). Each
// writes its fields in declaration order; persist adds the version byte.
// reconfigRecord holds Op interface values and stays gob.

var (
	_ persist.Record = (*runState)(nil)
	_ persist.Record = (*instanceMeta)(nil)
	_ persist.Record = (*delayRec)(nil)
)

// minOutputRecSize is the fewest bytes one encoded OutputRec takes.
const minOutputRecSize = 5

func appendOutputRec(b []byte, o *OutputRec) ([]byte, error) {
	b = persist.AppendInt(persist.AppendString(b, o.Output), int(o.Kind))
	b, err := persist.AppendObjects(b, o.Objects)
	if err != nil {
		return nil, err
	}
	return persist.AppendTime(persist.AppendInt(b, o.Iteration), o.At)
}

func readOutputRec(r *persist.RecordReader) OutputRec {
	return OutputRec{
		Output:    r.Str(),
		Kind:      core.OutputKind(r.Int()),
		Objects:   r.Objects(),
		Iteration: r.Int(),
		At:        r.Time(),
	}
}

// AppendRecord implements persist.Record.
func (s runState) AppendRecord(b []byte) ([]byte, error) {
	b = persist.AppendString(b, s.Path)
	b = persist.AppendInt(b, int(s.State))
	b = persist.AppendString(b, s.ChosenSet)
	b, err := persist.AppendObjects(b, s.Inputs)
	if err != nil {
		return nil, err
	}
	b = persist.AppendLen(b, len(s.Outputs))
	for i := range s.Outputs {
		if b, err = appendOutputRec(b, &s.Outputs[i]); err != nil {
			return nil, err
		}
	}
	b = persist.AppendBool(b, s.LastRepeat != nil)
	if s.LastRepeat != nil {
		if b, err = appendOutputRec(b, s.LastRepeat); err != nil {
			return nil, err
		}
	}
	b = persist.AppendBoolMap(b, s.MarksEmitted)
	return persist.AppendInt(persist.AppendInt(b, s.Attempt), s.Iteration), nil
}

// ReadRecord implements persist.Record. Outputs comes back nil when
// empty, as gob returns it.
func (s *runState) ReadRecord(data []byte) error {
	r := persist.NewRecordReader(data)
	*s = runState{
		Path:      r.Str(),
		State:     RunState(r.Int()),
		ChosenSet: r.Str(),
		Inputs:    r.Objects(),
	}
	if n := r.Len(minOutputRecSize); n > 0 {
		s.Outputs = make([]OutputRec, n)
		for i := range s.Outputs {
			s.Outputs[i] = readOutputRec(&r)
		}
	}
	if r.Bool() {
		rec := readOutputRec(&r)
		s.LastRepeat = &rec
	}
	s.MarksEmitted = r.BoolMap()
	s.Attempt = r.Int()
	s.Iteration = r.Int()
	return r.Finish()
}

// AppendRecord implements persist.Record.
func (m instanceMeta) AppendRecord(b []byte) ([]byte, error) {
	b = persist.AppendString(b, m.ID)
	b = persist.AppendString(b, m.SchemaName)
	b = persist.AppendString(b, m.SchemaSource)
	b = persist.AppendString(b, m.RootName)
	b = persist.AppendBool(b, m.Started)
	b = persist.AppendString(b, m.StartSet)
	b, err := persist.AppendObjects(b, m.StartInputs)
	if err != nil {
		return nil, err
	}
	b = persist.AppendInt(b, m.ReconfigSeq)
	return persist.AppendString(b, m.TraceID), nil
}

// ReadRecord implements persist.Record.
func (m *instanceMeta) ReadRecord(data []byte) error {
	r := persist.NewRecordReader(data)
	*m = instanceMeta{
		ID:           r.Str(),
		SchemaName:   r.Str(),
		SchemaSource: r.Str(),
		RootName:     r.Str(),
		Started:      r.Bool(),
		StartSet:     r.Str(),
		StartInputs:  r.Objects(),
		ReconfigSeq:  r.Int(),
		TraceID:      r.Str(),
	}
	return r.Finish()
}

// AppendRecord implements persist.Record.
func (d delayRec) AppendRecord(b []byte) ([]byte, error) {
	b, err := persist.AppendTime(persist.AppendString(b, d.Path), d.Deadline)
	if err != nil {
		return nil, err
	}
	return persist.AppendInt(b, d.Iteration), nil
}

// ReadRecord implements persist.Record.
func (d *delayRec) ReadRecord(data []byte) error {
	r := persist.NewRecordReader(data)
	*d = delayRec{Path: r.Str(), Deadline: r.Time(), Iteration: r.Int()}
	return r.Finish()
}
