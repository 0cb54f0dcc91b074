package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
)

// heatField40 is a 40³ Heat3d field: matricized to 1600×40, its covariance
// costs m·n²/2 = 1.28M multiply-adds, above linalg's parallel cutover, so
// with more than one CPU the PCA pin covers the sharded covariance branch
// (the 20³ heatField stays on the serial one).
func heatField40(t *testing.T) *grid.Field {
	t.Helper()
	cfg := heat3d.Default(40)
	cfg.Steps = 60
	return heat3d.Solve(cfg)
}

// archivePin is one pinned archive: a model and codec over a field.
type archivePin struct {
	name  string
	field func(*testing.T) *grid.Field
	model reduce.Model
	codec compress.Codec
	want  string
}

func checkArchivePins(t *testing.T, pins []archivePin) {
	t.Helper()
	for _, c := range pins {
		res, err := CompressCtx(context.Background(), c.field(t), Options{Model: c.model, DataCodec: c.codec})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(res.Archive)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: archive sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestPCAArchivePinned pins the exact bytes of PCA-preconditioned
// archives. The digests were captured with the At/Set cyclic Jacobi
// EigenSym and the band-sharded covariance; a kernel change that moves a
// single bit of the covariance, the eigenvectors, the scores or the delta
// fails here.
func TestPCAArchivePinned(t *testing.T) {
	checkArchivePins(t, []archivePin{
		{"heat20/sz-abs", heatField, reduce.PCA{}, sz.MustNew(sz.Abs, 1e-4), "433b622af42bc1c48cba33ef7eca51db912e078d4963d5fd54dd80c79bcd4354"},
		{"heat20/zfp", heatField, reduce.PCA{}, zfp.MustNew(24), "62db020044b53be116383aecdb90b707c19cec7872a711d76892055bff549981"},
		{"heat40/sz-abs", heatField40, reduce.PCA{}, sz.MustNew(sz.Abs, 1e-4), "1aed2f0e6f73c0f9a5aae7ccdb0eb5ccddd9d891149d1d8a4bab1e57455f369b"},
		{"heat40/zfp", heatField40, reduce.PCA{}, zfp.MustNew(24), "af4c07bfbe34c6c3b1c194554c2d0604e19e9a5964a892c4611e131c36a2ae9f"},
	})
}

// TestWaveletArchivePinned pins the exact bytes of Haar-preconditioned
// archives (standard and nonstandard decompositions). The digests were
// captured with the per-row Forward1D/Inverse1D transform.
func TestWaveletArchivePinned(t *testing.T) {
	checkArchivePins(t, []archivePin{
		{"heat20/sz-abs", heatField, reduce.Wavelet{}, sz.MustNew(sz.Abs, 1e-4), "fcb3b03dfa3d4281349f09d595cb6c0ee161e9489c0306ddbfcb306fcc201277"},
		{"heat20/zfp", heatField, reduce.Wavelet{}, zfp.MustNew(24), "9546147d7aa33044f21a6d270479f40cf4ff4e24aae8d153a5036a903638214c"},
		{"heat40/sz-abs", heatField40, reduce.Wavelet{}, sz.MustNew(sz.Abs, 1e-4), "78e9a54a4c17289a078b2058371572cbf1dc022ee1c8f6e24868d823fa122a20"},
		{"heat40/zfp", heatField40, reduce.Wavelet{}, zfp.MustNew(24), "8733b62f109ea3699dfabe9d74f20a17023707f4bdd1ea4ef1b9ebc2c6947a13"},
		{"heat40/ns/zfp", heatField40, reduce.Wavelet{Nonstandard: true}, zfp.MustNew(24), "bb039a66adcdc105d63d178d98eb574959aa8b27aa2ade3cd6c3949eceb721c9"},
	})
}
