package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// poolSize is the number of candidate inputs per dataset; the seed picks
// which of them a run uses. Heat3d members are snapshots of one solver run.
// Astro and Umbrella members are realizations (generator seeds 1..20):
// generating all 20 Astro 64³ fields would cost about 8 s per run, and
// realizations keep the spread of the compression ratio across seeds near
// 1% instead of the 3-9% drift a time series shows.
const poolSize = 20

// relBound sets every input's absolute error bound: ε = relBound·(max − min).
const relBound = 1e-4

// input is one field a workload compresses, with its declared bound.
type input struct {
	name           string // dataset[pool index]
	f              *Field
	lo, hi, maxAbs float64
	eps            float64
}

// fingerprint identifies an input in the report, so two runs can be shown
// to have used the same (or different) data.
type fingerprint struct {
	Name  string  `json:"name"`
	Dims  []int   `json:"dims"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Eps   float64 `json:"eps"`
	FNV64 string  `json:"fnv64"`
}

func newInput(name string, f *Field) input {
	lo, hi := f.Data[0], f.Data[0]
	maxAbs := 0.0
	for _, v := range f.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	return input{name: name, f: f, lo: lo, hi: hi, maxAbs: maxAbs, eps: relBound * (hi - lo)}
}

func (in input) fingerprint() fingerprint {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range in.f.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fingerprint{Name: in.name, Dims: append([]int(nil), in.f.Dims...),
		Min: in.lo, Max: in.hi, Eps: in.eps, FNV64: fmt.Sprintf("%016x", h.Sum64())}
}

// errOverBound returns max|x − x′| / ε for a decode of in, and whether the
// decode honours the bound. The allowance adds a few ulps of the field's
// magnitude: the preconditioned path subtracts and re-adds the
// reconstruction, and each of those roundings may land past ε.
func (in input) errOverBound(got *Field) (float64, bool) {
	if len(got.Data) != len(in.f.Data) {
		return math.Inf(1), false
	}
	worst := 0.0
	for i, v := range in.f.Data {
		worst = math.Max(worst, math.Abs(v-got.Data[i]))
	}
	allowed := in.eps + 4*(in.maxAbs+in.eps)*0x1p-52
	return worst / in.eps, worst <= allowed
}

// datasetSpec asks for k inputs of one dataset at one size.
type datasetSpec struct {
	name string // Heat3d, Astro or Umbrella
	n    int    // grid extent, or atom count for Umbrella
	k    int
}

// pick draws k distinct pool indices.
func pick(rng *rand.Rand, k int) []int {
	return rng.Perm(poolSize)[:k]
}

// heatSteps is the solver length for an n³ Heat3d run, matching the
// repository's dataset sizes (250 steps at 40³, 700 at 64³).
func heatSteps(n int) int {
	switch n {
	case 40:
		return 250
	case 64:
		return 700
	}
	return n * n / 6
}

// loadInputs generates the inputs each spec asks for, chosen from the pools
// by rng, and reports how long generation took.
func loadInputs(rng *rand.Rand, specs ...datasetSpec) ([]input, time.Duration, error) {
	start := time.Now()
	var out []input
	for _, ds := range specs {
		idx := pick(rng, ds.k)
		switch ds.name {
		case "Heat3d":
			snaps := heatSnapshots(ds.n, heatSteps(ds.n), poolSize)
			for _, i := range idx {
				out = append(out, newInput(fmt.Sprintf("Heat3d%d[%d]", ds.n, i), snaps[i]))
			}
		case "Astro":
			for _, i := range idx {
				out = append(out, newInput(fmt.Sprintf("Astro%d[%d]", ds.n, i), astroRealization(ds.n, int64(i+1))))
			}
		case "Umbrella":
			for _, i := range idx {
				f, err := umbrellaRealization(ds.n, int64(i+1))
				if err != nil {
					return nil, 0, fmt.Errorf("umbrella realization %d: %w", i, err)
				}
				out = append(out, newInput(fmt.Sprintf("Umbrella%d[%d]", 3*ds.n, i), f))
			}
		default:
			return nil, 0, fmt.Errorf("unknown dataset %q", ds.name)
		}
	}
	return out, time.Since(start), nil
}
