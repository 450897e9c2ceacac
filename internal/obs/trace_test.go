package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTracerRecordAndQuery(t *testing.T) {
	tr := NewTracer(16)
	base := time.Unix(100, 0)
	tr.Record(Span{TraceID: "t1", SpanID: "t1", Name: "instantiate", Instance: "i1", Start: base})
	tr.Record(Span{TraceID: "t1", SpanID: "a", Parent: "t1", Name: "activation", Instance: "i1", Task: "app/t1", Start: base.Add(time.Second)})
	tr.Record(Span{TraceID: "t2", SpanID: "t2", Name: "instantiate", Instance: "i2", Start: base.Add(2 * time.Second)})

	byTrace := tr.ByTrace("t1")
	if len(byTrace) != 2 || byTrace[0].Name != "instantiate" || byTrace[1].Name != "activation" {
		t.Fatalf("ByTrace = %+v", byTrace)
	}
	byInst := tr.ByInstance("i2")
	if len(byInst) != 1 || byInst[0].TraceID != "t2" {
		t.Fatalf("ByInstance = %+v", byInst)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(16) // minimum capacity
	for i := 0; i < 40; i++ {
		tr.Record(Span{TraceID: "t", SpanID: fmt.Sprintf("s%02d", i), Instance: "i"})
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(spans))
	}
	if spans[0].SpanID != "s24" || spans[15].SpanID != "s39" {
		t.Fatalf("ring kept %s..%s, want s24..s39", spans[0].SpanID, spans[15].SpanID)
	}
}

func TestTracerImportDedups(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{TraceID: "t", SpanID: "a", Instance: "i"})
	tr.Import([]Span{
		{TraceID: "t", SpanID: "a", Instance: "i"}, // duplicate of the recorded one
		{TraceID: "t", SpanID: "b", Instance: "i"},
		{TraceID: "t", SpanID: "b", Instance: "i"}, // duplicate within the import
		{TraceID: "t", SpanID: "", Instance: "i"},  // unidentifiable: skipped
	})
	if got := len(tr.ByInstance("i")); got != 2 {
		t.Fatalf("after import, %d spans, want 2 (a, b)", got)
	}
}

func TestTracerImportDedupSurvivesEviction(t *testing.T) {
	tr := NewTracer(16)
	// "x" is recorded twice (a re-record keeps the newer occurrence
	// live). Roll the ring until the OLDER occurrence is evicted: the
	// index must still know the newer one, so an Import of "x" is
	// still a duplicate, while a genuinely evicted ID ("s00") imports
	// as new again.
	tr.Record(Span{TraceID: "t", SpanID: "s00", Instance: "i"})
	tr.Record(Span{TraceID: "t", SpanID: "x", Instance: "i"})
	for i := 1; i < 14; i++ {
		tr.Record(Span{TraceID: "t", SpanID: fmt.Sprintf("s%02d", i), Instance: "i"})
	}
	tr.Record(Span{TraceID: "t", SpanID: "x", Instance: "i"}) // re-record, ring now full
	tr.Record(Span{TraceID: "t", SpanID: "s14", Instance: "i"})
	tr.Record(Span{TraceID: "t", SpanID: "s15", Instance: "i"}) // evicts the OLD "x" slot
	tr.Import([]Span{
		{TraceID: "t", SpanID: "x", Instance: "i"},   // still live: must dedup
		{TraceID: "t", SpanID: "s00", Instance: "i"}, // evicted: imports as new
	})
	var xs, s00s int
	for _, sp := range tr.Spans() {
		switch sp.SpanID {
		case "x":
			xs++
		case "s00":
			s00s++
		}
	}
	if xs != 1 || s00s != 1 {
		t.Fatalf("after import, x appears %d times (want 1), s00 %d times (want 1)", xs, s00s)
	}
}

func TestNewIDShape(t *testing.T) {
	a, b := NewID(), NewID()
	for _, id := range []string{a, b} {
		if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("ID %q, want 16 lowercase hex digits", id)
		}
	}
	if a == b {
		t.Fatalf("two fresh IDs collided: %q", a)
	}
}

// TestNewIDAllocatesOnce: every activation mints a span ID, so the
// string is the only allocation (a -race build adds the random buffer).
func TestNewIDAllocatesOnce(t *testing.T) {
	want := 1.0
	if raceEnabled {
		want = 2
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewID() }); n != want {
		t.Fatalf("NewID allocates %v times per call, want %v", n, want)
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MEngineTimerFires).Add(5)
	tr := NewTracer(16)
	tr.Record(Span{TraceID: "t1", SpanID: "t1", Name: "instantiate", Instance: "inst-1"})

	d, err := StartDebug("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	body := httpGet(t, "http://"+d.Addr()+"/metrics")
	if !strings.Contains(body, "engine_timer_fires_total 5") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	body = httpGet(t, "http://"+d.Addr()+"/trace/inst-1")
	var spans []Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/trace/inst-1 not JSON: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].TraceID != "t1" {
		t.Fatalf("/trace/inst-1 = %+v", spans)
	}

	body = httpGet(t, "http://"+d.Addr()+"/debug/pprof/cmdline")
	if len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
