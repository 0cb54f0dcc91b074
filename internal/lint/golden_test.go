package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches golden expectations: `// want "substring"`.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants maps line number -> expected diagnostic substring.
func parseWants(t *testing.T, path string) map[int]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wants := map[int]string{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
			wants[line] = m[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestGolden runs every analyzer against its testdata fixture and requires
// an exact match between reported diagnostics and `// want` expectations —
// every want hit, no diagnostic unexplained. This pins both the positive
// and negative behaviour of each rule so analyzers cannot silently rot.
func TestGolden(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			path := filepath.Join("testdata", "src", a.Name, a.Name+".go")
			pass, err := CheckFile(path)
			if err != nil {
				t.Fatalf("fixture does not type-check: %v", err)
			}
			diags := RunAnalyzers(pass, []*Analyzer{a})
			if len(diags) == 0 {
				t.Fatalf("fixture produced no findings; the analyzer would exit zero on bad code")
			}
			wants := parseWants(t, path)
			if len(wants) == 0 {
				t.Fatalf("fixture has no // want expectations")
			}
			seen := map[int]bool{}
			for _, d := range diags {
				want, ok := wants[d.Pos.Line]
				if !ok {
					t.Errorf("unexpected diagnostic at %s line %d: %s", path, d.Pos.Line, d.Message)
					continue
				}
				if !strings.Contains(d.Message, want) {
					t.Errorf("line %d: diagnostic %q does not contain %q", d.Pos.Line, d.Message, want)
				}
				if seen[d.Pos.Line] {
					t.Errorf("line %d: duplicate diagnostic", d.Pos.Line)
				}
				seen[d.Pos.Line] = true
			}
			for line, want := range wants {
				if !seen[line] {
					t.Errorf("line %d: expected diagnostic containing %q, got none", line, want)
				}
			}
		})
	}
}

// TestGoldenFixturesAreSelfContained keeps fixtures honest: each must live
// exactly where the harness looks and belong to a package named after the
// rule.
func TestGoldenFixturesAreSelfContained(t *testing.T) {
	for _, a := range All() {
		path := filepath.Join("testdata", "src", a.Name, a.Name+".go")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if !strings.Contains(string(data), fmt.Sprintf("package %s", a.Name)) {
			t.Errorf("%s: fixture package name must match the rule", a.Name)
		}
	}
}

// TestSuppressionDirective verifies the ignore comment works on the same
// line and the line above, and that unrelated rules are not suppressed.
func TestSuppressionDirective(t *testing.T) {
	src := `package suppress

func f(a, b float64) int {
	n := 0
	//lrmlint:ignore floatcmp above-line suppression
	if a == b {
		n++
	}
	if a != b { //lrmlint:ignore floatcmp same-line suppression
		n++
	}
	//lrmlint:ignore deadassign wrong rule: floatcmp must still fire
	if a == b {
		n++
	}
	//lrmlint:ignore all blanket suppression
	if a == b {
		n++
	}
	return n
}
`
	dir := t.TempDir()
	path := filepath.Join(dir, "suppress.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pass, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pass, []*Analyzer{AnalyzerFloatCmp})
	if len(diags) != 1 {
		t.Fatalf("expected exactly 1 surviving diagnostic (wrong-rule ignore), got %d: %v", len(diags), diags)
	}
	if diags[0].Pos.Line != 13 {
		t.Fatalf("surviving diagnostic on line %d, want 13", diags[0].Pos.Line)
	}
}

// TestByName covers rule-subset resolution.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 9 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 9", len(all), err)
	}
	two, err := ByName("floatcmp, goroutine")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset failed: %v", err)
	}
	if _, err := ByName("nosuchrule"); err == nil {
		t.Fatal("expected error for unknown rule")
	}
}
