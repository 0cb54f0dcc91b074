package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSkipsNestedModules: "./..." stops at a directory with its own
// go.mod, as the go command does, so a nested module is not linted as
// part of the enclosing one.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":         "module outer\n",
		"a/a.go":         "package a\n",
		"nested/go.mod":  "module nested\n",
		"nested/n.go":    "package nested\n",
		"nested/x/x.go":  "package x\n",
		"b/deeper/d.go":  "package deeper\n",
		"c/inner/go.mod": "module inner\n",
		"c/inner/i/i.go": "package i\n",
		"c/notmod/nm.go": "package notmod\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"outer/a", "outer/b/deeper", "outer/c/notmod"}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded %v, want %v", got, want)
		}
	}
}
