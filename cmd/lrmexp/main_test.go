package main

import (
	"os"
	"path/filepath"
	"testing"

	"lrm/internal/obs"
)

// TestRunWritesOutputsOnFailure drives the real entrypoint down its two
// failure exits: an unknown experiment id (exit 1) and an unknown -size
// (exit 2). Both fail after the outputs are set up, so the -stats,
// -history and -cpuprofile files must still be written, and the CPU
// profile stopped rather than left empty.
func TestRunWritesOutputsOnFailure(t *testing.T) {
	prev := obs.SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.Reset()
	})
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown experiment", []string{"nosuch"}, 1},
		{"unknown size", []string{"-size", "huge", "fig3"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{
				"-stats":      filepath.Join(dir, "s.prom"),
				"-history":    filepath.Join(dir, "h.json"),
				"-cpuprofile": filepath.Join(dir, "c.pb"),
			}
			var args []string
			for flag, path := range files {
				args = append(args, flag, path)
			}
			if got := run(append(args, tc.args...)); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
			for flag, path := range files {
				fi, err := os.Stat(path)
				if err != nil {
					t.Errorf("%s output missing: %v", flag, err)
				} else if fi.Size() == 0 {
					t.Errorf("%s output %s is empty", flag, path)
				}
			}
		})
	}
}
