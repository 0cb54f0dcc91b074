package zfp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("LRM_GEN_CORPUS") == "" {
		t.Skip("set LRM_GEN_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	field := grid.New(6, 6)
	for i := range field.Data {
		field.Data[i] = float64(i) / 7
	}
	seeds := map[string][]byte{}
	for name, c := range map[string]*Codec{
		"precision": MustNew(8),
		"accuracy":  MustNewAccuracy(1e-3),
		"rate":      MustNewRate(8),
	} {
		enc, err := c.Compress(context.Background(), field, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		seeds[name] = enc
	}
	seeds["truncated"] = seeds["precision"][:len(seeds["precision"])/2]
	seeds["garbage"] = []byte("\x00\x01\x02\xff\xfe\xfd not a zfp stream")
	dir := filepath.Join("testdata", "fuzz", "FuzzDecompress")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
