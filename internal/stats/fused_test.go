package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// leBytes is the little-endian float64 serialisation CharacterizeFloats
// must agree with (grid.Field.Bytes' layout).
func leBytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// sameBits reports whether two float64s are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCompareMatchesSeparateMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	random := make([]float64, 4097)
	for i := range random {
		random[i] = rng.NormFloat64() * 1e3
	}
	noisy := make([]float64, len(random))
	for i, v := range random {
		noisy[i] = v + rng.Float64()*1e-3 - 5e-4
	}
	constant := make([]float64, 64)
	for i := range constant {
		constant[i] = 2.5
	}
	shifted := append([]float64(nil), constant...)
	shifted[17] += 1e-9

	cases := []struct {
		name string
		a, b []float64
	}{
		{"empty", nil, nil},
		{"constant", constant, constant},
		{"constant-reference", constant, shifted},
		{"random", random, noisy},
		{"identical", random, random},
		{"signed-zeros", []float64{0, math.Copysign(0, -1), 0}, []float64{math.Copysign(0, -1), 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Compare(tc.a, tc.b)
			want := Comparison{
				MaxAbsErr: MaxAbsError(tc.a, tc.b),
				NRMSE:     NRMSE(tc.a, tc.b),
				PSNR:      PSNR(tc.a, tc.b),
			}
			if !sameBits(got.MaxAbsErr, want.MaxAbsErr) || !sameBits(got.NRMSE, want.NRMSE) ||
				!sameBits(got.PSNR, want.PSNR) {
				t.Errorf("Compare = %+v, separate metrics = %+v", got, want)
			}
		})
	}
}

func TestCompareLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compare of unequal lengths did not panic")
		}
	}()
	Compare([]float64{1, 2}, []float64{1})
}

// checkByteFeatures fails t unless CharacterizeFloats(vals) is bit for bit
// Characterize over the values' little-endian bytes.
func checkByteFeatures(t *testing.T, vals []float64) {
	t.Helper()
	got, want := CharacterizeFloats(vals), Characterize(leBytes(vals))
	if !sameBits(got.ByteEntropy, want.ByteEntropy) || !sameBits(got.ByteMean, want.ByteMean) ||
		!sameBits(got.SerialCorrelation, want.SerialCorrelation) {
		t.Errorf("%d values: CharacterizeFloats = %+v, Characterize(bytes) = %+v", len(vals), got, want)
	}
}

func TestCharacterizeFloatsMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	smooth := make([]float64, 32*32*32)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i)*0.013) * 300
	}
	bitsRandom := make([]float64, 5000)
	for i := range bitsRandom {
		bitsRandom[i] = math.Float64frombits(rng.Uint64()) // NaNs and Infs included
	}
	checkByteFeatures(t, nil)
	checkByteFeatures(t, []float64{1})
	checkByteFeatures(t, []float64{0, 0, 0})
	checkByteFeatures(t, []float64{-1.5, math.Inf(1), math.NaN(), 1e-310})
	checkByteFeatures(t, smooth)
	checkByteFeatures(t, bitsRandom)
}

// FuzzByteFeatures: for any byte string read as little-endian float64s
// (a ragged tail is dropped), the float-direct byte features equal the
// byte-buffer ones bit for bit.
func FuzzByteFeatures(f *testing.F) {
	f.Add([]byte{})
	f.Add(leBytes([]float64{1, 2, 3, 4.5, -0.25}))
	f.Add(leBytes([]float64{math.NaN(), math.Inf(-1), 0, 5e-324}))
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkByteFeatures(t, vals)
	})
}
