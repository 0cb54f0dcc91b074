package reduce

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/stats"
)

// bg and budget are the context and worker budget the tests fit and
// reconstruct with; no rep or reconstruction depends on either.
var (
	bg     = context.Background()
	budget = parallel.Config{}
)

// deltaOf returns f minus rep's reconstruction, the field the pipeline
// compresses.
func deltaOf(f *grid.Field, rep *Rep) (*grid.Field, error) {
	recon, err := rep.Reconstruct(bg, nil, budget)
	if err != nil {
		return nil, err
	}
	return recon, recon.SubFrom(f)
}

// zSymmetric3D builds a field whose planes are scaled copies of a common
// pattern — the structure one-base exploits.
func zSymmetric3D(n int) *grid.Field {
	f := grid.New(n, n, n)
	for k := 0; k < n; k++ {
		z := float64(k)/float64(n-1) - 0.5
		amp := math.Exp(-z * z * 8)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				f.Set3(amp*(10+math.Sin(float64(j)/3)*math.Cos(float64(i)/4)), k, j, i)
			}
		}
	}
	return f
}

func lowRank2D(m, n, rank int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.New(m, n)
	for r := 0; r < rank; r++ {
		u := make([]float64, m)
		v := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				f.Data[i*n+j] += u[i] * v[j]
			}
		}
	}
	return f
}

func allModels() []Model {
	return []Model{
		OneBase{},
		MultiBase{Blocks: 4},
		DuoModel{Factor: 4},
		PCA{},
		SVD{},
		Wavelet{},
	}
}

func TestRoundTripDeltaIsExactForAllModels(t *testing.T) {
	// The fundamental pipeline invariant: reconstruct(rep) + delta == f
	// exactly (when neither is quantised).
	fields := map[string]*grid.Field{
		"3d": zSymmetric3D(16),
		"2d": lowRank2D(32, 24, 3, 1),
	}
	for fname, f := range fields {
		for _, m := range allModels() {
			rep, err := m.Fit(bg, f, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), fname, err)
			}
			delta, err := deltaOf(f, rep)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), fname, err)
			}
			recon, err := rep.Reconstruct(bg, nil, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), fname, err)
			}
			if err := recon.AddInPlace(delta); err != nil {
				t.Fatal(err)
			}
			for i := range f.Data {
				if math.Abs(recon.Data[i]-f.Data[i]) > 1e-9*(1+math.Abs(f.Data[i])) {
					t.Fatalf("%s/%s: recon+delta != f at %d: %v vs %v",
						m.Name(), fname, i, recon.Data[i], f.Data[i])
				}
			}
		}
	}
}

// TestReconstructIntoDirtyDestination: every reconstructor writes every
// element of its destination, so reconstructing into a NaN-filled buffer
// (arena scratch has unspecified contents) gives the bits of a fresh one,
// and a destination of the wrong shape is refused.
func TestReconstructIntoDirtyDestination(t *testing.T) {
	models := append(allModels(),
		PCA{BlockCols: 5},
		SVD{Randomized: true, MaxK: 4, Seed: 1},
		Wavelet{Nonstandard: true})
	fields := map[string]*grid.Field{
		"3d": zSymmetric3D(16),
		"2d": lowRank2D(32, 24, 3, 1),
	}
	for fname, f := range fields {
		for _, m := range models {
			rep, err := m.Fit(bg, f, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), fname, err)
			}
			want, err := rep.Reconstruct(bg, nil, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), fname, err)
			}
			dst := grid.New(f.Dims...)
			for i := range dst.Data {
				dst.Data[i] = math.NaN()
			}
			got, err := rep.Reconstruct(bg, dst, budget)
			if err != nil {
				t.Fatalf("%s/%s: into dst: %v", m.Name(), fname, err)
			}
			if got != dst {
				t.Fatalf("%s/%s: Reconstruct did not return its dst", m.Name(), fname)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s/%s: element %d is %v into a dirty dst, %v into a fresh one",
						m.Name(), fname, i, got.Data[i], want.Data[i])
				}
			}
			wrong := grid.New(f.Len())
			if _, err := rep.Reconstruct(bg, wrong, budget); err == nil {
				t.Fatalf("%s/%s: dst of dims %v accepted for rep dims %v", m.Name(), fname, wrong.Dims, rep.Dims)
			}
		}
	}
}

func TestOneBaseDeltaSmootherThanOriginal(t *testing.T) {
	// The paper's central claim for Heat3d-like data: the delta's byte
	// entropy is lower (more compressible) than the original's.
	f := zSymmetric3D(24)
	rep, err := OneBase{}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := deltaOf(f, rep)
	if err != nil {
		t.Fatal(err)
	}
	// Variation within each plane: deltas should be near-proportional
	// copies, so per-plane spread shrinks.
	planeSpread := func(g *grid.Field) float64 {
		n := g.Dims[0]
		s := 0.0
		for k := 0; k < n; k++ {
			p := g.Plane(k)
			lo, hi := p.MinMax()
			s += hi - lo
		}
		return s
	}
	if planeSpread(delta) >= planeSpread(f) {
		t.Fatalf("one-base delta spread %v not below original %v",
			planeSpread(delta), planeSpread(f))
	}
}

func TestOneBaseRepIsMidPlane(t *testing.T) {
	f := zSymmetric3D(9)
	rep, _ := OneBase{}.Fit(bg, f, budget)
	mid := f.Plane(4)
	for i := range mid.Data {
		if rep.Values[i] != mid.Data[i] {
			t.Fatal("one-base rep is not the mid-plane")
		}
	}
	if rep.SizeBytes() != 8*9*9 {
		t.Fatalf("rep size = %d", rep.SizeBytes())
	}
}

func TestMultiBaseUsesMoreStorageButLocalBases(t *testing.T) {
	f := zSymmetric3D(16)
	one, _ := OneBase{}.Fit(bg, f, budget)
	multi, _ := MultiBase{Blocks: 4}.Fit(bg, f, budget)
	if multi.SizeBytes() <= one.SizeBytes() {
		t.Fatalf("multi-base (%d B) should store more than one-base (%d B)",
			multi.SizeBytes(), one.SizeBytes())
	}
	// Multi-base deltas are locally smaller: sum |delta|.
	d1, _ := deltaOf(f, one)
	dm, _ := deltaOf(f, multi)
	sumAbs := func(g *grid.Field) float64 {
		s := 0.0
		for _, v := range g.Data {
			s += math.Abs(v)
		}
		return s
	}
	if sumAbs(dm) >= sumAbs(d1) {
		t.Fatalf("multi-base |delta| %v not below one-base %v", sumAbs(dm), sumAbs(d1))
	}
}

func TestMultiBaseBlockClamping(t *testing.T) {
	f := zSymmetric3D(4)
	rep, err := MultiBase{Blocks: 99}.Fit(bg, f, budget) // more blocks than slabs
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Reconstruct(bg, nil, budget); err != nil {
		t.Fatal(err)
	}
}

func TestDuoModelCoarseFactorFallback(t *testing.T) {
	// 18 is not divisible by 4; the factor must fall back to 3 (or 2).
	f := grid.New(18, 18)
	for i := range f.Data {
		f.Data[i] = float64(i % 17)
	}
	rep, err := DuoModel{Factor: 4}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) >= f.Len() {
		t.Fatal("duomodel rep not smaller than data")
	}
	if _, err := rep.Reconstruct(bg, nil, budget); err != nil {
		t.Fatal(err)
	}
}

func TestDuoModelRejectsTinyFields(t *testing.T) {
	f := grid.New(3)
	if _, err := (DuoModel{Factor: 4}).Fit(bg, f, budget); err == nil {
		t.Fatal("expected error for uncoarsenable field")
	}
}

func TestPCALowRankRecovery(t *testing.T) {
	// Rank-3 data: PCA at 95% energy must capture it almost exactly with
	// k <= 4 components.
	f := lowRank2D(64, 20, 3, 2)
	rep, err := PCA{}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := rep.Reconstruct(bg, nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	rmse := stats.RMSE(f.Data, recon.Data)
	_, hi := f.MinMax()
	if rmse > 0.1*math.Abs(hi) {
		t.Fatalf("PCA rank-3 reconstruction RMSE %v too high", rmse)
	}
	// Representation must be much smaller than the data.
	if rep.SizeBytes() >= 8*f.Len() {
		t.Fatalf("PCA rep (%d B) not smaller than data (%d B)", rep.SizeBytes(), 8*f.Len())
	}
}

func TestPCAEnergyKnobChangesK(t *testing.T) {
	f := lowRank2D(48, 24, 10, 3)
	low, _ := PCA{Energy: 0.5}.Fit(bg, f, budget)
	high, _ := PCA{Energy: 0.999}.Fit(bg, f, budget)
	if low.SizeBytes() >= high.SizeBytes() {
		t.Fatalf("lower energy should give smaller rep: %d vs %d",
			low.SizeBytes(), high.SizeBytes())
	}
}

func TestPCABlockedMatchesShape(t *testing.T) {
	f := lowRank2D(40, 30, 4, 4)
	rep, err := PCA{BlockCols: 8}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := rep.Reconstruct(bg, nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Blocked PCA still reconstructs decently on low-rank data.
	if stats.NRMSE(f.Data, recon.Data) > 0.2 {
		t.Fatalf("blocked PCA NRMSE %v", stats.NRMSE(f.Data, recon.Data))
	}
	if baseName(rep.Model) != "pca" {
		t.Fatalf("blocked model base name = %q", baseName(rep.Model))
	}
}

func TestSVDLowRankRecovery(t *testing.T) {
	f := lowRank2D(64, 20, 2, 5)
	rep, err := SVD{}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := rep.Reconstruct(bg, nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NRMSE(f.Data, recon.Data) > 0.1 {
		t.Fatalf("SVD NRMSE %v", stats.NRMSE(f.Data, recon.Data))
	}
}

func TestSVDRank1Data(t *testing.T) {
	f := lowRank2D(32, 16, 1, 6)
	rep, err := SVD{}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	recon, _ := rep.Reconstruct(bg, nil, budget)
	if stats.NRMSE(f.Data, recon.Data) > 1e-6 {
		t.Fatalf("rank-1 SVD should be near exact, NRMSE %v", stats.NRMSE(f.Data, recon.Data))
	}
	// k must be 1: sizes ~ 1 + m + n floats.
	if len(rep.Values) > 1+32+16+8 {
		t.Fatalf("rank-1 rep has %d values", len(rep.Values))
	}
}

func TestWaveletSmoothDataSparseRep(t *testing.T) {
	n := 64
	f := grid.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			f.Set2(math.Sin(float64(j)/11)+math.Cos(float64(i)/13), j, i)
		}
	}
	rep, err := Wavelet{}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SizeBytes() > 8*f.Len()/4 {
		t.Fatalf("wavelet rep %d B not sparse for smooth data (%d B raw)",
			rep.SizeBytes(), 8*f.Len())
	}
	recon, err := rep.Reconstruct(bg, nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NRMSE(f.Data, recon.Data) > 0.1 {
		t.Fatalf("wavelet NRMSE %v", stats.NRMSE(f.Data, recon.Data))
	}
}

func TestWaveletThetaTradeoff(t *testing.T) {
	f := lowRank2D(32, 32, 5, 7)
	tight, _ := Wavelet{Theta: 0.01}.Fit(bg, f, budget)
	loose, _ := Wavelet{Theta: 0.2}.Fit(bg, f, budget)
	if loose.SizeBytes() >= tight.SizeBytes() {
		t.Fatalf("larger theta should shrink rep: %d vs %d",
			loose.SizeBytes(), tight.SizeBytes())
	}
	rt, _ := tight.Reconstruct(bg, nil, budget)
	rl, _ := loose.Reconstruct(bg, nil, budget)
	if stats.RMSE(f.Data, rt.Data) > stats.RMSE(f.Data, rl.Data) {
		t.Fatal("smaller theta should reconstruct better")
	}
}

func TestRank1FieldsSupported(t *testing.T) {
	// 1-D data exercises the near-square matricization.
	f := grid.New(120)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) / 7)
	}
	for _, m := range []Model{PCA{}, SVD{}, Wavelet{}, OneBase{}, DuoModel{Factor: 2}} {
		rep, err := m.Fit(bg, f, budget)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		recon, err := rep.Reconstruct(bg, nil, budget)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if recon.Len() != f.Len() {
			t.Fatalf("%s: wrong recon length", m.Name())
		}
	}
}

func TestMatShape(t *testing.T) {
	f3 := grid.New(4, 5, 6)
	m, n := matShape(f3)
	if m != 20 || n != 6 {
		t.Fatalf("3-D matShape = %dx%d", m, n)
	}
	f1 := grid.New(36)
	m, n = matShape(f1)
	if m*n != 36 || n > m || n != 6 {
		t.Fatalf("1-D matShape = %dx%d", m, n)
	}
	prime := grid.New(37)
	m, n = matShape(prime)
	if m != 37 || n != 1 {
		t.Fatalf("prime matShape = %dx%d", m, n)
	}
}

func TestRejectNaN(t *testing.T) {
	f := grid.New(8, 8)
	f.Data[5] = math.NaN()
	for _, m := range allModels() {
		if _, err := m.Fit(bg, f, budget); err == nil {
			t.Fatalf("%s accepted NaN", m.Name())
		}
	}
}

func TestReconstructUnknownModel(t *testing.T) {
	if _, err := (&Rep{Model: "martian", Dims: []int{4}}).Reconstruct(bg, nil, budget); err == nil {
		t.Fatal("expected unknown-model error")
	}
	if _, err := (&Rep{Model: "pca(e=0.95)"}).Reconstruct(bg, nil, budget); err == nil {
		t.Fatal("expected no-dims error")
	}
}

func TestReconstructCorruptMeta(t *testing.T) {
	f := lowRank2D(16, 12, 2, 8)
	for _, m := range []Model{PCA{}, SVD{}, Wavelet{}, MultiBase{Blocks: 2}, DuoModel{Factor: 2}} {
		rep, err := m.Fit(bg, f, budget)
		if err != nil {
			t.Fatal(err)
		}
		// Truncate meta: must error, not panic.
		bad := *rep
		if len(rep.Meta) > 0 {
			bad.Meta = rep.Meta[:len(rep.Meta)/2]
			if _, err := bad.Reconstruct(bg, nil, budget); err == nil {
				t.Fatalf("%s: accepted truncated meta", m.Name())
			}
		}
		// Truncate values: must error, not panic.
		bad2 := *rep
		bad2.Values = rep.Values[:len(rep.Values)/2]
		if _, err := bad2.Reconstruct(bg, nil, budget); err == nil {
			t.Fatalf("%s: accepted truncated values", m.Name())
		}
	}
}

func TestModelNames(t *testing.T) {
	cases := map[string]string{
		OneBase{}.Name():            "one-base",
		MultiBase{Blocks: 8}.Name(): "multi-base",
		DuoModel{}.Name():           "duomodel",
		PCA{}.Name():                "pca",
		SVD{}.Name():                "svd",
		Wavelet{}.Name():            "wavelet",
		PCA{BlockCols: 16}.Name():   "pca",
	}
	for full, base := range cases {
		if baseName(full) != base {
			t.Fatalf("baseName(%q) = %q, want %q", full, baseName(full), base)
		}
	}
}

func TestSpectra(t *testing.T) {
	f := lowRank2D(48, 24, 2, 9)
	pc, err := PCASpectrum(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := SVDSpectrum(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range [][]float64{pc, sv} {
		sum := 0.0
		for i, v := range spec {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("spectrum value %v out of range", v)
			}
			if i > 0 && spec[i] > spec[i-1]+1e-12 {
				t.Fatal("spectrum not descending")
			}
			sum += v
		}
		if sum > 1+1e-9 {
			t.Fatalf("spectrum sums to %v > 1", sum)
		}
	}
	// Rank-2 data: the first two PCs carry nearly everything.
	if pc[0]+pc[1] < 0.95 {
		t.Fatalf("rank-2 data: PC1+PC2 = %v", pc[0]+pc[1])
	}
}

func TestSVDRandomizedVariant(t *testing.T) {
	f := lowRank2D(48, 20, 3, 12)
	exact, err := SVD{MaxK: 3}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := SVD{MaxK: 3, Randomized: true, Seed: 4}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Same representation layout, reconstructable by the shared path.
	if baseName(rnd.Model) != "svd" {
		t.Fatalf("base name = %q", baseName(rnd.Model))
	}
	re, err := exact.Reconstruct(bg, nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rnd.Reconstruct(bg, nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	// On exactly rank-3 data both reconstruct near-perfectly.
	if stats.NRMSE(f.Data, re.Data) > 1e-8 || stats.NRMSE(f.Data, rr.Data) > 1e-6 {
		t.Fatalf("NRMSE exact=%v rand=%v", stats.NRMSE(f.Data, re.Data), stats.NRMSE(f.Data, rr.Data))
	}
	// Determinism by seed.
	rnd2, err := SVD{MaxK: 3, Randomized: true, Seed: 4}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rnd.Values {
		if rnd.Values[i] != rnd2.Values[i] {
			t.Fatal("randomized SVD rep not deterministic for fixed seed")
		}
	}
	// MaxK is mandatory for the randomized path.
	if _, err := (SVD{Randomized: true}).Fit(bg, f, budget); err == nil {
		t.Fatal("expected MaxK-required error")
	}
}

func TestWaveletNonstandardVariant(t *testing.T) {
	n := 48
	f := grid.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			dx, dy := float64(i-n/2), float64(j-n/2)
			f.Set2(math.Exp(-(dx*dx+dy*dy)/64), j, i) // isotropic bump
		}
	}
	std, err := Wavelet{}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := Wavelet{Nonstandard: true}.Fit(bg, f, budget)
	if err != nil {
		t.Fatal(err)
	}
	if baseName(ns.Model) != "wavelet" {
		t.Fatalf("base name = %q", baseName(ns.Model))
	}
	// Both variants must reconstruct through the shared dispatcher.
	for _, rep := range []*Rep{std, ns} {
		recon, err := rep.Reconstruct(bg, nil, budget)
		if err != nil {
			t.Fatal(err)
		}
		if stats.NRMSE(f.Data, recon.Data) > 0.2 {
			t.Fatalf("%s: NRMSE %v", rep.Model, stats.NRMSE(f.Data, recon.Data))
		}
	}
	// Corrupting the transform-kind field must be rejected, not crash.
	bad := *ns
	bad.Meta = append([]byte{9}, ns.Meta[1:]...)
	if _, err := bad.Reconstruct(bg, nil, budget); err == nil {
		t.Fatal("expected unknown-kind rejection")
	}
}
