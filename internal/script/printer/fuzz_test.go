package printer_test

import (
	"sort"
	"testing"

	"repro/internal/script/parser"
	"repro/internal/script/printer"
	"repro/internal/scripts"
)

// FuzzParsePrint checks the script front end on arbitrary bytes: the
// parser never panics, and for any input that parses, the printer's
// canonical form is a fixed point (parse, print, parse, print gives the
// same text twice). The seeds are the paper scripts TestRoundTrip
// round-trips; plain `go test` replays them and testdata/fuzz.
func FuzzParsePrint(f *testing.F) {
	names := make([]string, 0, len(scripts.All))
	for name := range scripts.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add([]byte(scripts.All[name]))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		s1, err := parser.Parse("fuzz", src)
		if err != nil {
			return
		}
		out1 := printer.Fprint(s1)
		s2, err := parser.Parse("fuzz-reprint", []byte(out1))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n---\n%s", err, out1)
		}
		if out2 := printer.Fprint(s2); out2 != out1 {
			t.Fatalf("printer is not a fixed point:\n--- first\n%s\n--- second\n%s", out1, out2)
		}
	})
}
