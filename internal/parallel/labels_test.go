package parallel

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lrm/internal/obs/trace"
)

// TestForWorkersCarryCallerLabels pins the profiling contract the chunked
// container and the zfp shard loops rely on: pprof labels that
// trace.WithLabels sets on the submitting goroutine show up on every pool
// worker's stack, because Go copies a goroutine's labels into each
// goroutine it starts. The pool needs no label code of its own for this.
func TestForWorkersCarryCallerLabels(t *testing.T) {
	defer trace.SetEnabled(trace.SetEnabled(true)) // WithLabels is a no-op while observability is off

	const workers = 3
	var arrived sync.WaitGroup
	arrived.Add(workers)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, restore := trace.WithLabels(context.Background(), "stage", "label_probe")
		defer restore()
		For(workers, workers, func(int) {
			arrived.Done()
			<-release
		})
	}()
	arrived.Wait()
	var buf bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&buf, 1)
	close(release)
	<-done
	if err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}

	// debug=1 groups goroutines with identical stacks and labels into one
	// record: "<count> @ <pcs>", then "# labels: {...}", then the frames.
	labelled := 0
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "lrm/internal/parallel.For.func1") {
			continue
		}
		if !strings.Contains(rec, `# labels: {"stage":"label_probe"}`) {
			t.Errorf("pool worker stack without the caller's labels:\n%s", rec)
			continue
		}
		head, _, _ := strings.Cut(rec, " @ ")
		count := head[strings.LastIndexByte(head, '\n')+1:] // the first record follows the profile's title line
		n, err := strconv.Atoi(count)
		if err != nil {
			t.Fatalf("unparsable goroutine record header %q", count)
		}
		labelled += n
	}
	if labelled != workers {
		t.Fatalf("%d labelled pool workers in the goroutine profile, want %d:\n%s", labelled, workers, buf.String())
	}
}
