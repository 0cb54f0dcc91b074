package grid

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
)

// rampField returns an n-value 1-D field whose values differ bit by bit.
func rampField(n int) *Field {
	f := New(n)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i)*0.37) * 1e3
	}
	return f
}

func TestReadFieldMatchesFromBytes(t *testing.T) {
	per := readBufBytes / 8
	for _, n := range []int{1, 7, per - 1, per, per + 1, 3*per + 5, 8 * per} {
		f := rampField(n)
		b := f.Bytes()
		readers := map[string]io.Reader{
			"whole":    bytes.NewReader(b),
			"one-byte": iotest.OneByteReader(bytes.NewReader(b)),
			"half":     iotest.HalfReader(bytes.NewReader(b)),
		}
		for name, r := range readers {
			if name == "one-byte" && n > per+1 {
				continue // slow, and the small sizes cover ragged reads
			}
			g, err := ReadField(r, n)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if g.Rank() != 1 || g.Dims[0] != n || g.Len() != n {
				t.Fatalf("n=%d %s: dims %v len %d", n, name, g.Dims, g.Len())
			}
			for i := range f.Data {
				if math.Float64bits(g.Data[i]) != math.Float64bits(f.Data[i]) {
					t.Fatalf("n=%d %s: value %d differs", n, name, i)
				}
			}
		}
	}
}

// TestReadFieldLengthErrors: a body too short, too long or ragged fails
// with FromBytes' error text, so callers report the same message.
func TestReadFieldLengthErrors(t *testing.T) {
	per := readBufBytes / 8
	b := rampField(2 * per).Bytes()
	for _, tc := range []struct {
		name string
		body []byte
		dims []int
	}{
		{"short", b[:8*per], []int{2, per}},
		{"long", b, []int{per}},
		{"ragged", b[:8*per+3], []int{per}},
		{"empty", nil, []int{4, 4}},
		{"tiny claim", b[:16], []int{3}},
	} {
		_, got := ReadField(bytes.NewReader(tc.body), tc.dims...)
		_, want := FromBytes(tc.body, tc.dims...)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%s: ReadField error %v, FromBytes error %v", tc.name, got, want)
		}
	}
	if _, err := ReadField(bytes.NewReader(b), 0, 4); err == nil {
		t.Error("non-positive extent accepted")
	}
}

func TestReadFieldReturnsReaderError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(bytes.NewReader(make([]byte, 100)), iotest.ErrReader(boom))
	if _, err := ReadField(r, 1000); !errors.Is(err, boom) {
		t.Fatalf("error %v, want the reader's", err)
	}
}

// TestReadFieldAllocationFollowsBytes: a claim of 2^40 values backed by 16
// bytes allocates far less than a MiB, and an exact body allocates the
// field once, not a growing copy of it.
func TestReadFieldAllocationFollowsBytes(t *testing.T) {
	allocated := func(fn func()) uint64 {
		fn() // warm the buffer pool
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		const runs = 8
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}

	if got := allocated(func() {
		if _, err := ReadField(bytes.NewReader(make([]byte, 16)), 1<<20, 1<<20, 1); err == nil {
			t.Error("16-byte body accepted for 2^40 values")
		}
	}); got >= 1<<20 {
		t.Errorf("16-byte body claiming 2^40 values allocated %d bytes, want < 1 MiB", got)
	}

	body := rampField(32 * 32 * 32).Bytes()
	if got, limit := allocated(func() {
		if _, err := ReadField(bytes.NewReader(body), 32, 32, 32); err != nil {
			t.Error(err)
		}
	}), uint64(len(body)+readBufBytes+4<<10); got > limit {
		// One read buffer of slack: a collection during the runs empties
		// the buffer pool.
		t.Errorf("32³ body allocated %d bytes, want ≤ %d (the field, a read buffer, small change)", got, limit)
	}
}
