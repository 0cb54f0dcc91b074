// Command lrmpack preconditions and compresses a raw float64 file using a
// reduced model, or reconstructs the original from an archive.
//
// Usage:
//
//	lrmpack -c [-model M] [-codec C] [-dims ZxYxX] in.f64 out.lrm
//	lrmpack -d in.lrm out.f64
//	lrmpack -select [-codec C] [-dims ZxYxX] in.f64
//
// Models: direct, one-base, multi-base, duomodel, pca, svd, wavelet.
// Codecs: zfp, sz, fpc, flate (the paper's configurations).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/reduce"
)

func main() {
	compressMode := flag.Bool("c", false, "compress in.f64 to out.lrm")
	decompressMode := flag.Bool("d", false, "decompress in.lrm to out.f64")
	selectMode := flag.Bool("select", false, "try every model and report ratios (model-selection strategy)")
	model := flag.String("model", "direct", "reduced model: direct, one-base, multi-base, duomodel, pca, svd, wavelet")
	codec := flag.String("codec", "zfp", "codec family: zfp, sz, fpc, flate")
	dims := flag.String("dims", "", "extents as ZxYxX (default: read <in>.dims)")
	flag.Usage = usage
	flag.Parse()

	if err := run(*compressMode, *decompressMode, *selectMode, *model, *codec, *dims, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "lrmpack: %v\n", err)
		os.Exit(1)
	}
}

func run(compressMode, decompressMode, selectMode bool, model, codec, dims string, args []string) error {
	ctx := context.Background()
	modeCount := 0
	for _, m := range []bool{compressMode, decompressMode, selectMode} {
		if m {
			modeCount++
		}
	}
	if modeCount != 1 {
		usage()
		return fmt.Errorf("exactly one of -c, -d, -select is required")
	}

	switch {
	case decompressMode:
		if len(args) != 2 {
			return fmt.Errorf("-d needs <in.lrm> <out.f64>")
		}
		archive, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		f, err := core.DecompressCtx(ctx, archive)
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[1], f.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("reconstructed %d values to %s\n", f.Len(), args[1])
		return nil

	case compressMode:
		if len(args) != 2 {
			return fmt.Errorf("-c needs <in.f64> <out.lrm>")
		}
		f, err := loadRaw(args[0], dims)
		if err != nil {
			return err
		}
		opts, err := buildOptions(model, codec)
		if err != nil {
			return err
		}
		res, err := core.CompressCtx(ctx, f, opts)
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[1], res.Archive, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d -> %d bytes (ratio %.2f; rep %d B, delta %d B)\n",
			args[1], res.OriginalBytes, len(res.Archive), res.Ratio(), res.RepBytes(), res.DeltaBytes)
		return nil

	default: // selectMode
		if len(args) != 1 {
			return fmt.Errorf("-select needs <in.f64>")
		}
		f, err := loadRaw(args[0], dims)
		if err != nil {
			return err
		}
		opts, err := buildOptions("direct", codec)
		if err != nil {
			return err
		}
		best, results, err := core.SelectModel(ctx, f, core.DefaultCandidates(), opts)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				fmt.Printf("%-12s failed: %v\n", r.Label, r.Err)
				continue
			}
			marker := " "
			if r.Label == best.Label {
				marker = "*"
			}
			fmt.Printf("%s %-12s ratio %.2f\n", marker, r.Label, r.Ratio)
		}
		return nil
	}
}

// buildOptions maps CLI names to the paper's configurations.
func buildOptions(model, codecFamily string) (core.Options, error) {
	data, delta, err := core.PaperCodecs(codecFamily)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{DataCodec: data, DeltaCodec: delta}
	switch model {
	case "direct":
	case "one-base":
		opts.Model = reduce.OneBase{}
	case "multi-base":
		opts.Model = reduce.MultiBase{Blocks: 4}
	case "duomodel":
		opts.Model = reduce.DuoModel{Factor: 4}
	case "pca":
		opts.Model = reduce.PCA{}
	case "svd":
		opts.Model = reduce.SVD{}
	case "wavelet":
		opts.Model = reduce.Wavelet{}
	default:
		return core.Options{}, fmt.Errorf("unknown model %q", model)
	}
	return opts, nil
}

// loadRaw reads a raw float64 file with dims from the flag or sidecar.
func loadRaw(path, dimsFlag string) (*grid.Field, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := dimsFlag
	if spec == "" {
		side, err := os.ReadFile(path + ".dims")
		if err != nil {
			return nil, fmt.Errorf("no -dims given and no %s.dims sidecar: %w", path, err)
		}
		spec = strings.TrimSpace(string(side))
	}
	parts := strings.Split(spec, "x")
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dims %q: %w", spec, err)
		}
		dims[i] = v
	}
	return grid.FromBytes(raw, dims...)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  lrmpack -c [-model M] [-codec C] [-dims ZxYxX] in.f64 out.lrm
  lrmpack -d in.lrm out.f64
  lrmpack -select [-codec C] [-dims ZxYxX] in.f64

Models: direct, one-base, multi-base, duomodel, pca, svd, wavelet
Codecs: zfp, sz, fpc, flate (paper configurations: ZFP 16/8-bit precision,
SZ rel 1e-5/1e-3, FPC level 20)
`)
}
