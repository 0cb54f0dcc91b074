package sz

import (
	"lrm/internal/parallel"
)

// This file parallelizes the Lorenzo predict–quantize recurrence. The
// predictor of point (k, j, i) reads only already-reconstructed neighbours
// with strictly smaller per-dimension indices, so the domain can be cut
// into a grid of tiles whose dependencies run only "up and left": tile
// (a, b) needs tiles (a-1, b), (a, b-1) and (a-1, b-1). Tiles on the same
// anti-diagonal a+b = d are therefore mutually independent and run
// concurrently, sweeping the diagonals in order (a wavefront).
//
// Every point performs the identical floating-point arithmetic on the
// identical operands as the serial raster scan — only the visit order of
// independent points changes — so the quantization codes and the
// reconstruction are bit-identical at any worker or tile count. Misses are
// collected into the exact-value pool by a separate raster pass over the
// finished codes, which reproduces the serial pool order.
//
// 1-D data has a strictly sequential dependency chain (and the adaptive
// curve-fit predictor is 1-D only), so rank 1 always runs serially.

// wavefrontTiles picks the tile-grid extent along a dimension of length n:
// one tile for a single worker, which makes the sweep the raster scan, and
// otherwise about two tiles per worker for pipeline fill, but never tiles
// shorter than 4 points.
func wavefrontTiles(n, workers int) int {
	if workers <= 1 {
		return 1
	}
	g := 2 * workers
	if g > n/4 {
		g = n / 4
	}
	if g < 1 {
		g = 1
	}
	return g
}

// rowFn processes the contiguous point run [x0,x1) of row (k, j); k is 0
// for rank-2 domains. All strictly-lower-index neighbours of every point
// in the run are complete when the callback fires, at any tile count.
type rowFn func(k, j, x0, x1 int)

// wavefront2 sweeps an (n0, n1) domain in anti-diagonal tile order,
// calling fn once per contiguous i1-run of each tile row, dependencies
// complete.
func wavefront2(n0, n1, workers int, fn func(i0, i1lo, i1hi int)) {
	g0 := wavefrontTiles(n0, workers)
	g1 := wavefrontTiles(n1, workers)
	for d := 0; d <= g0+g1-2; d++ {
		lo := d - g1 + 1
		if lo < 0 {
			lo = 0
		}
		hi := d
		if hi > g0-1 {
			hi = g0 - 1
		}
		parallel.For(workers, hi-lo+1, func(t int) {
			a := lo + t
			b := d - a
			i0lo, i0hi := parallel.ShardBounds(n0, g0, a)
			i1lo, i1hi := parallel.ShardBounds(n1, g1, b)
			for i0 := i0lo; i0 < i0hi; i0++ {
				fn(i0, i1lo, i1hi)
			}
		})
	}
}

// sweepRows sweeps the whole rank-2 or rank-3 domain as row runs in
// wavefront tile order, so every point's strictly-lower-index neighbours
// are processed before row(k, j, x0, x1) reaches it. Rank 2 tiles (y, x),
// so rows arrive as x-segments; rank 3 tiles (z, y) with full x rows inside
// a tile, which keeps the inner loop contiguous. One worker gives a 1×1
// tile grid: the plain raster scan on the calling goroutine.
func sweepRows(dims []int, workers int, row rowFn) {
	if len(dims) == 2 {
		wavefront2(dims[0], dims[1], workers, func(y, xlo, xhi int) {
			row(0, y, xlo, xhi)
		})
		return
	}
	nx := dims[2]
	wavefront2(dims[0], dims[1], workers, func(z, ylo, yhi int) {
		for y := ylo; y < yhi; y++ {
			row(z, y, 0, nx)
		}
	})
}
