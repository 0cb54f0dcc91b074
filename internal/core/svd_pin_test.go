package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/reduce"
)

// TestSVDArchivePinned pins the exact bytes of SVD-preconditioned archives.
// The digests were captured with the original row-major Jacobi kernel;
// any change to the SVD arithmetic that moves a single bit of U, S or V
// changes the archive and fails here.
func TestSVDArchivePinned(t *testing.T) {
	f := heatField(t)
	cases := []struct {
		name  string
		codec compress.Codec
		want  string
	}{
		{"sz-abs", sz.MustNew(sz.Abs, 1e-4), "90ffee9be8df1978f82105709a4f64dd258968ac4e8b0dcac973bc855054c23e"},
		{"zfp", zfp.MustNew(24), "9f3d4b3e25bd15e05124893ec9c84ac9a01de4661f874e1e0eb573c50b8e6ee0"},
	}
	for _, c := range cases {
		res, err := Compress(context.Background(), f, Options{Model: reduce.SVD{}, DataCodec: c.codec})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(res.Archive)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: archive sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSelectModelPinned: model selection over the default pool must pick
// the same candidate at the same ratio, and the SVD candidate's ratio must
// not move.
func TestSelectModelPinned(t *testing.T) {
	f := heatField(t)
	best, results, err := SelectModel(context.Background(), f, DefaultCandidates(), Options{DataCodec: sz.MustNew(sz.Abs, 1e-4)})
	if err != nil {
		t.Fatal(err)
	}
	const wantBest, wantBestRatio, wantSVDRatio = "pca", 23.451813851227556, 16.008004002001
	if best.Label != wantBest {
		t.Errorf("best = %s, want %s", best.Label, wantBest)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
		if r.Label == wantBest && r.Ratio != wantBestRatio {
			t.Errorf("%s ratio = %v, want %v", r.Label, r.Ratio, wantBestRatio)
		}
		if r.Label == "svd" && r.Ratio != wantSVDRatio {
			t.Errorf("svd ratio = %v, want %v", r.Ratio, wantSVDRatio)
		}
	}
}
