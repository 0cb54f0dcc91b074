package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// TestPreconditionedDecodedBitsPinned pins the SHA-256 of the decoded
// float bits of preconditioned archives, for every reconstructor, under sz
// abs and zfp accuracy, compressed and decoded at Workers 1 and 8. The
// archive pins cover only the compress side; these cover the decode side:
// the order in which the delta is added to the reconstruction, and that
// every reconstructor writes every element of its destination whatever
// that buffer held before.
func TestPreconditionedDecodedBitsPinned(t *testing.T) {
	f := heatField(t)
	codecs := []struct {
		name  string
		codec compress.Codec
	}{
		{"sz-abs", sz.MustNew(sz.Abs, 1e-4)},
		{"zfp-acc", zfp.MustNewAccuracy(1e-4)},
	}
	cases := []struct {
		model reduce.Model
		want  [2]string // sz-abs, zfp-acc
	}{
		{reduce.OneBase{}, [2]string{
			"71bbd7b10cd350cde4c04121fc00d7010f1e3e19a67f68d3f76235d72c60d23b",
			"d8528323460afee16086505c6a0a8c271b1a46d37ceaf939aa804ec9971203c2"}},
		{reduce.MultiBase{Blocks: 4}, [2]string{
			"2edde8087533669dd37beef55b444eea2a3654c62c0aa31117dbf4ab1bcc0a84",
			"e584149644b0692b1057f490f4944a5671514d3dd11e3460688c14f505a14b91"}},
		{reduce.DuoModel{Factor: 4}, [2]string{
			"ebf71c54af5d639050041a2f5e12d9718cd4cb3b679e4bda9c846ed8e760e974",
			"b1d9d4950ba9fc4f160bb31279959275d459c80c51f87bc25433421638e2d9f1"}},
		{reduce.PCA{}, [2]string{
			"a9fd40d828d98333815caefd1e0c7c3fbf680b96932ac61643ae91eca8232d1a",
			"b08742a43876f94557bc973c40623fcfee597610ccaf56c688729cc21aaa08fd"}},
		{reduce.SVD{}, [2]string{
			"1cb1699b892e277898bc38fc8b076fabef649059cbcbb73fde3e06471e2cc007",
			"68df3d35c46cbf9a44e309323081e13e9d2f1cfeef488945503ea7099d7dc46a"}},
		{reduce.Wavelet{}, [2]string{
			"0b776289acc11a28caf4c6034edf074d6ea05fc697e473b28228adb666e7e60f",
			"6967adb514373e24f12f06a2c7cc43884b5e537315e759bdc04388140e4bf988"}},
		{reduce.Wavelet{Nonstandard: true}, [2]string{
			"4e65396b49cc59accb91be7890636e678d4295fbab125ac417149b65e20b7ad6",
			"6c3004522650cbe396b7f76c8f1d8eb52d8abf34720ebf7c4f981417dab1d9d7"}},
	}
	for _, c := range cases {
		for ci, cc := range codecs {
			for _, w := range []int{1, 8} {
				// MinShardBytes -1 makes the 20³ kernels shard at 8 workers.
				cfg := parallel.Config{Workers: w, MinShardBytes: -1}
				res, err := Compress(context.Background(), f, Options{Model: c.model, DataCodec: cc.codec, Parallel: cfg})
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", c.model.Name(), cc.name, w, err)
				}
				back, err := Decompress(context.Background(), res.Archive, DecompressOpts{Parallel: cfg})
				if err != nil {
					t.Fatalf("%s/%s/w%d: decompress: %v", c.model.Name(), cc.name, w, err)
				}
				sum := sha256.Sum256(floatBytes(back.Data))
				if got := hex.EncodeToString(sum[:]); got != c.want[ci] {
					t.Errorf("%s/%s/w%d: decoded sha256 %s, want %s", c.model.Name(), cc.name, w, got, c.want[ci])
				}
			}
		}
	}
}
