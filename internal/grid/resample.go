package grid

import "fmt"

// Downsample returns a coarse field whose every extent is divided by factor,
// computed by averaging each factor^rank block. Extents must be divisible by
// factor. This models running "a light version of the full model with
// enlarged grid spacing" (DuoModel's reduced model).
func (f *Field) Downsample(factor int) (*Field, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("grid: non-positive downsample factor %d", factor)
	}
	for _, d := range f.Dims {
		if d%factor != 0 {
			return nil, fmt.Errorf("grid: extent %d not divisible by factor %d", d, factor)
		}
	}
	switch f.Rank() {
	case 1:
		n := f.Dims[0] / factor
		out := New(n)
		for i := 0; i < n; i++ {
			s := 0.0
			for a := 0; a < factor; a++ {
				s += f.Data[i*factor+a]
			}
			out.Data[i] = s / float64(factor)
		}
		return out, nil
	case 2:
		ny, nx := f.Dims[0]/factor, f.Dims[1]/factor
		out := New(ny, nx)
		inv := 1.0 / float64(factor*factor)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				s := 0.0
				for b := 0; b < factor; b++ {
					for a := 0; a < factor; a++ {
						s += f.At2(j*factor+b, i*factor+a)
					}
				}
				out.Set2(s*inv, j, i)
			}
		}
		return out, nil
	case 3:
		nz, ny, nx := f.Dims[0]/factor, f.Dims[1]/factor, f.Dims[2]/factor
		out := New(nz, ny, nx)
		inv := 1.0 / float64(factor*factor*factor)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					s := 0.0
					for c := 0; c < factor; c++ {
						for b := 0; b < factor; b++ {
							for a := 0; a < factor; a++ {
								s += f.At3(k*factor+c, j*factor+b, i*factor+a)
							}
						}
					}
					out.Set3(s*inv, k, j, i)
				}
			}
		}
		return out, nil
	}
	return nil, ErrRank
}

// Upsample interpolates f onto dst's grid using separable linear (bi-/
// tri-linear) interpolation with cell-centered sample alignment, writing
// every element of dst. It is the reconstruction step of DuoModel: a
// coarse reduced-model output is linearly re-inflated to the full-model
// resolution before the delta is applied.
func (f *Field) Upsample(dst *Field) error {
	dims := dst.Dims
	if len(dims) != f.Rank() {
		return fmt.Errorf("grid: upsample rank %d != field rank %d", len(dims), f.Rank())
	}
	if n, err := checkDims(dims); err != nil {
		return err
	} else if n != len(dst.Data) {
		return fmt.Errorf("grid: upsample destination holds %d values, dims %v need %d", len(dst.Data), dims, n)
	}
	switch f.Rank() {
	case 1:
		for i := 0; i < dims[0]; i++ {
			_, x0, x1, tx := lerpCoord(i, dims[0], f.Dims[0])
			dst.Data[i] = (1-tx)*f.Data[x0] + tx*f.Data[x1]
		}
		return nil
	case 2:
		for j := 0; j < dims[0]; j++ {
			_, y0, y1, ty := lerpCoord(j, dims[0], f.Dims[0])
			for i := 0; i < dims[1]; i++ {
				_, x0, x1, tx := lerpCoord(i, dims[1], f.Dims[1])
				v := (1-ty)*((1-tx)*f.At2(y0, x0)+tx*f.At2(y0, x1)) +
					ty*((1-tx)*f.At2(y1, x0)+tx*f.At2(y1, x1))
				dst.Set2(v, j, i)
			}
		}
		return nil
	case 3:
		for k := 0; k < dims[0]; k++ {
			_, z0, z1, tz := lerpCoord(k, dims[0], f.Dims[0])
			for j := 0; j < dims[1]; j++ {
				_, y0, y1, ty := lerpCoord(j, dims[1], f.Dims[1])
				for i := 0; i < dims[2]; i++ {
					_, x0, x1, tx := lerpCoord(i, dims[2], f.Dims[2])
					c00 := (1-tx)*f.At3(z0, y0, x0) + tx*f.At3(z0, y0, x1)
					c01 := (1-tx)*f.At3(z0, y1, x0) + tx*f.At3(z0, y1, x1)
					c10 := (1-tx)*f.At3(z1, y0, x0) + tx*f.At3(z1, y0, x1)
					c11 := (1-tx)*f.At3(z1, y1, x0) + tx*f.At3(z1, y1, x1)
					v := (1-tz)*((1-ty)*c00+ty*c01) + tz*((1-ty)*c10+ty*c11)
					dst.Set3(v, k, j, i)
				}
			}
		}
		return nil
	}
	return ErrRank
}

// lerpCoord maps destination index i on a grid of n cell-centered samples to
// a source coordinate on a grid of m samples, returning the two bracketing
// source indices and the interpolation weight of the upper one.
func lerpCoord(i, n, m int) (x float64, lo, hi int, t float64) {
	// Cell-centered alignment: sample s covers [(s)/m, (s+1)/m) of the unit
	// interval, centred at (s+0.5)/m.
	x = (float64(i)+0.5)/float64(n)*float64(m) - 0.5
	if x <= 0 {
		return x, 0, 0, 0
	}
	if x >= float64(m-1) {
		return x, m - 1, m - 1, 0
	}
	lo = int(x)
	hi = lo + 1
	t = x - float64(lo)
	return x, lo, hi, t
}
