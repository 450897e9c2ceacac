package baseline_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/baseline/eca"
	"repro/internal/baseline/petri"
	"repro/internal/script/sema"
	"repro/internal/scripts"
)

// The tests in this file keep docs/REPRODUCTION.md honest: the Section 6
// specification-size table it prints is recomputed from the compilers,
// and every test and scenario it cites must exist in the tree.

const (
	moduleRoot  = "../.."
	ledgerPath  = moduleRoot + "/docs/REPRODUCTION.md"
	scenarioDir = moduleRoot + "/scenarios"
)

// specScripts are the paper scripts of the Section 6 comparison, in the
// order the table lists them.
var specScripts = []string{"fig1_diamond", "service_impact", "process_order", "business_trip"}

// specSizes measures one script three ways: the structural script's own
// elements (alternative sources, input sets, outputs), the ECA rules it
// unrolls into, and the places plus transitions of its Petri net.
func specSizes(t *testing.T, name string) (script, rules, net int) {
	t.Helper()
	schema, err := sema.CompileSource(name, []byte(scripts.All[name]))
	if err != nil {
		t.Fatal(err)
	}
	root, err := schema.Root("")
	if err != nil {
		t.Fatal(err)
	}
	st := schema.Stats()
	rs, _ := eca.Compile(schema, root)
	n := petri.Compile(schema, root)
	return st.Sources + st.InputSets + st.Outputs, len(rs), len(n.Places) + len(n.Transitions)
}

func readLedger(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// TestSpecSizeTable recomputes the specification-size table and
// requires docs/REPRODUCTION.md to hold it verbatim.
func TestSpecSizeTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| script | script elements | ECA rules | Petri elements |\n")
	b.WriteString("|---|---:|---:|---:|\n")
	for _, name := range specScripts {
		script, rules, net := specSizes(t, name)
		// The net encodes both places and transitions, so it is always
		// the largest; every script costs at least one rule.
		if script <= 0 || rules <= 0 || net <= rules {
			t.Errorf("%s: sizes out of the expected order: script=%d rules=%d net=%d", name, script, rules, net)
		}
		fmt.Fprintf(&b, "| `%s` | %d | %d | %d |\n", name, script, rules, net)
	}
	if want := b.String(); !strings.Contains(readLedger(t), want) {
		t.Fatalf("%s does not hold the current specification-size table; want:\n%s", ledgerPath, want)
	}
}

// TestReproductionLedgerCitesExistingTests fails when a test, benchmark,
// fuzz target or scenario named in docs/REPRODUCTION.md is missing from
// the tree, so the ledger cannot rot.
func TestReproductionLedgerCitesExistingTests(t *testing.T) {
	doc := readLedger(t)
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != moduleRoot {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cited := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w+)(?:/[\\w/-]+)?`").FindAllStringSubmatch(doc, -1)
	if len(cited) == 0 {
		t.Fatal("the ledger cites no tests")
	}
	for _, m := range cited {
		if !defined[m[1]] {
			t.Errorf("%s cites %s, which no test file defines", ledgerPath, m[1])
		}
	}
	scns := regexp.MustCompile("`([\\w-]+\\.scn)`").FindAllStringSubmatch(doc, -1)
	if len(scns) == 0 {
		t.Fatal("the ledger cites no scenarios")
	}
	for _, m := range scns {
		if _, err := os.Stat(filepath.Join(scenarioDir, m[1])); err != nil {
			t.Errorf("%s cites scenario %s: %v", ledgerPath, m[1], err)
		}
	}
}
