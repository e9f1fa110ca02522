package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// knobFor returns the row of the knobs table for dir's type typ, so
// each case below checks the rule as docs-check runs it.
func knobFor(t *testing.T, dir, typ string) knob {
	t.Helper()
	for _, k := range knobs {
		if k.dir == dir && k.typ == typ {
			return k
		}
	}
	t.Fatalf("no knobs row for %s.%s", dir, typ)
	return knob{}
}

// failures runs the knob rule over testdata/<tree> and returns the
// fields it reports, as "qual.Type.Field".
func failures(t *testing.T, tree string, rows ...knob) []string {
	t.Helper()
	var got []string
	checkKnobs("testdata/"+tree, rows, func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		field, _, ok := strings.Cut(msg, " is set only")
		if !ok {
			t.Fatalf("unexpected failure: %s", msg)
		}
		got = append(got, field)
	})
	return got
}

func TestKnobRule(t *testing.T) {
	core := knobFor(t, "internal/core", "Config")
	novoht := knobFor(t, "internal/novoht", "Options")
	gossip := knobFor(t, "internal/gossip", "Options")
	cases := []struct {
		name, tree string
		rows       []knob
		want       []string
	}{
		// A field only a _test.go file sets is a test hook.
		{"set only in a test", "testonly", []knob{core}, []string{"core.Config.TestOnly"}},
		// The benchmark module is a binary like any other.
		{"set only under benchmark", "benchonly", []knob{novoht}, nil},
		// zht.Config literals (qualified, and bare in package zht), an
		// assignment through a struct field and one through a pointer
		// parameter all count.
		{"literal and assignment forms", "literals", []knob{core}, nil},
		// novoht.Options.Fault is a seam: tests substitute a fault
		// injector there, so no binary need set it.
		{"listed seam", "seam", []knob{novoht}, nil},
		{"unlisted seam", "seam", []knob{{dir: "internal/novoht", typ: "Options", quals: []string{"novoht"}}},
			[]string{"novoht.Options.Fault"}},
		// The declaring package only reads and defaults its knobs.
		{"set only in its own package", "ownpkg", []knob{gossip}, []string{"gossip.Options.MaxFallback"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := failures(t, c.tree, c.rows...); !reflect.DeepEqual(got, c.want) {
				t.Errorf("failures = %q, want %q", got, c.want)
			}
		})
	}
}

// TestKnobRuleMissingType pins that a row whose type is gone fails
// loudly instead of passing vacuously.
func TestKnobRuleMissingType(t *testing.T) {
	var got []string
	checkKnobs("testdata/benchonly", []knob{{dir: "internal/novoht", typ: "Gone", quals: []string{"novoht"}}},
		func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) })
	if len(got) != 1 || !strings.Contains(got[0], "no Gone type") {
		t.Errorf("failures = %q, want one \"no Gone type\"", got)
	}
}

// TestDocFlagsRemovedFlag pins that a code block passing a flag its
// binary no longer defines fails, and that prose naming one does not.
func TestDocFlagsRemovedFlag(t *testing.T) {
	var got []string
	flags := map[string]map[string]bool{"zht-bench": {"nodes": true, "batch": true}}
	checkDocFlags("testdata/docflags/EXPERIMENTS.md", flags,
		func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) })
	want := []string{"testdata/docflags/EXPERIMENTS.md:7: zht-bench has no flag -smoke"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failures = %q, want %q", got, want)
	}
}

// TestMetricCatalogueBothWays pins the catalogue rule in both
// directions: a registered name missing from OBSERVABILITY.md fails,
// and so does a table row naming a metric no non-test source
// registers; prose mentions and wildcard rows are not metrics.
func TestMetricCatalogueBothWays(t *testing.T) {
	var got []string
	checkMetricCatalogue("testdata/catalogue",
		func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) })
	want := []string{
		`metric "zht.x.uncatalogued" (registered in testdata/catalogue/internal/x/x.go) is not catalogued in OBSERVABILITY.md`,
		`OBSERVABILITY.md:9: metric "zht.x.stale" is catalogued but registered in no non-test source`,
		`OBSERVABILITY.md:10: metric "zht.x.testonly" is catalogued but registered in no non-test source`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failures = %q, want %q", got, want)
	}
}

// TestCitedTestNamesResolve pins the test-name rule: a test or
// benchmark named in a doc's code span resolves to a func of a _test.go
// file, so one that was renamed or deleted fails, and so does one
// defined only in a nested module or a testdata/ tree; prose mentions
// and fenced blocks are not citations.
func TestCitedTestNamesResolve(t *testing.T) {
	var got []string
	checkTestNames("testdata/testnames", []string{"DESIGN.md"},
		func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) })
	want := []string{
		"DESIGN.md:8: TestGone is defined in no _test.go",
		"DESIGN.md:8: FuzzGone is defined in no _test.go",
		"DESIGN.md:10: TestInNestedModule is defined in no _test.go",
		"DESIGN.md:10: TestInTestdata is defined in no _test.go",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failures = %q, want %q", got, want)
	}
}
