package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestExitNonZeroOnFindings drives the real CLI path against the golden
// fixtures: every analyzer must produce findings (exit 1) on its fixture
// package, proving the tool gates CI rather than reporting and passing.
func TestExitNonZeroOnFindings(t *testing.T) {
	for _, rule := range []string{"floatcmp", "ignorederr", "goroutine", "deadassign", "decodetaint", "errtaxonomy", "ctxflow"} {
		var out, errb bytes.Buffer
		code := run([]string{"-rules", rule, "./internal/lint/testdata/src/" + rule}, &out, &errb)
		if code != 1 {
			t.Errorf("%s: exit code %d on fixture, want 1 (stderr: %s)", rule, code, errb.String())
		}
		if !strings.Contains(out.String(), "["+rule+"]") {
			t.Errorf("%s: diagnostics missing rule tag:\n%s", rule, out.String())
		}
	}
}

// TestExitZeroOnCleanPackage runs the full suite on a package known clean.
func TestExitZeroOnCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./internal/invariant"}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d on clean package, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestUnknownRuleIsUsageError pins the 2 = usage-error exit code.
func TestUnknownRuleIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d for unknown rule, want 2", code)
	}
}

// TestListAnalyzers keeps the -list inventory in sync with the suite.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, rule := range []string{"floatcmp", "ignorederr", "goroutine", "deadassign", "decodetaint", "errtaxonomy", "ctxflow"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %s", rule)
		}
	}
}

// TestJSONOutput pins the machine-readable shape consumed by CI: an array
// of {file,line,column,rule,message} objects, exit 1 when findings exist.
func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-rules", "decodetaint", "./internal/lint/testdata/src/decodetaint"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d on fixture, want 1 (stderr: %s)", code, errb.String())
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Column  int    `json:"column"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json output empty on a fixture with seeded violations")
	}
	for _, d := range diags {
		if d.Rule != "decodetaint" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("malformed diagnostic: %+v", d)
		}
	}
}

// TestJSONCleanIsEmptyArray keeps clean output parseable: [] rather than
// nothing, so downstream jq pipelines never special-case the happy path.
func TestJSONCleanIsEmptyArray(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./internal/invariant"}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d on clean package, want 0 (stderr: %s)", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean -json output = %q, want []", out.String())
	}
}
