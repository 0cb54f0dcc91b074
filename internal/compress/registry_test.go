package compress_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// probeCodec is a minimal codec whose family is named by its caller: its
// stream is the field's raw bytes, decoded by whatever is registered for
// the family.
type probeCodec struct{ family string }

func (p probeCodec) Name() string   { return p.family + "(probe)" }
func (p probeCodec) Lossless() bool { return true }

func (p probeCodec) Compress(_ context.Context, f *grid.Field, _ parallel.Config) ([]byte, error) {
	return f.Bytes(), nil
}

func (p probeCodec) Decompress(_ context.Context, b []byte, _ parallel.Config) (*grid.Field, error) {
	return grid.FromBytes(b, len(b)/8)
}

// TestRegistry checks the one decoder map: a family registered once is
// both listed and decodable through core, registering a family twice
// panics, and an unknown family fails with an error wrapping ErrCorrupt.
func TestRegistry(t *testing.T) {
	const fam = "regprobe"
	compress.Register(fam, probeCodec{fam}.Decompress)
	for _, want := range []string{"flate", fam} {
		if !slices.Contains(compress.Families(), want) {
			t.Fatalf("%s missing from %v", want, compress.Families())
		}
	}

	f, err := grid.FromData([]float64{1.5, -2, 3.25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompressCtx(context.Background(), f, core.Options{DataCodec: probeCodec{fam}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecompressCtx(context.Background(), res.Archive)
	if err != nil {
		t.Fatalf("registered family not decodable through core: %v", err)
	}
	if !slices.Equal(back.Data, f.Data) {
		t.Fatalf("decoded %v, want %v", back.Data, f.Data)
	}

	if _, err := compress.DecoderFor("martian"); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("unknown family: err = %v, want ErrCorrupt", err)
	}
	res, err = core.CompressCtx(context.Background(), f, core.Options{DataCodec: probeCodec{"martian"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecompressCtx(context.Background(), res.Archive); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("core decode of unknown family: err = %v, want ErrCorrupt", err)
	}

	if compress.CodecFamily("zfp(p=16)") != "zfp" || compress.CodecFamily("flate") != "flate" {
		t.Fatal("CodecFamily broken")
	}

	// Duplicate registration must panic (silent shadowing is a bug).
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate-registration panic")
		}
	}()
	compress.Register(fam, probeCodec{fam}.Decompress)
}
