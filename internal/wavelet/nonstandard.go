package wavelet

import (
	"fmt"

	"lrm/internal/parallel"
)

// Forward2DNonstandard applies the nonstandard (pyramid) Haar
// decomposition: rows and columns are transformed ONE level at a time,
// alternating, and the recursion descends only into the low-low quadrant —
// the scheme of Mulcahy's image-compression exposition (the paper's
// reference [24]) and of most image codecs. Compared to the standard
// decomposition (full row transform, then full column transform) it
// concentrates energy into a true multiresolution pyramid, which often
// thresholds to a sparser matrix on data with isotropic features.
func Forward2DNonstandard(data []float64, rows, cols int) error {
	if rows*cols != len(data) {
		return fmt.Errorf("wavelet: %d values do not fit %dx%d", len(data), rows, cols)
	}
	tmp := scratch2D(rows, cols)
	defer parallel.PutFloats(tmp)
	r, c := rows, cols
	for r >= 2 || c >= 2 {
		if c >= 2 {
			for j := 0; j < r; j++ {
				row := data[j*cols : j*cols+c]
				forwardStep(row, tmp)
			}
			c = (c + 1) / 2
		}
		if r >= 2 {
			for i := 0; i < c; i += panelWidth {
				forwardStepPanel(data[i:], cols, min(panelWidth, c-i), r, tmp)
			}
			r = (r + 1) / 2
		}
	}
	return nil
}

// Inverse2DNonstandard undoes Forward2DNonstandard.
func Inverse2DNonstandard(data []float64, rows, cols int) error {
	if rows*cols != len(data) {
		return fmt.Errorf("wavelet: %d values do not fit %dx%d", len(data), rows, cols)
	}
	// Reproduce the forward ladder of (r, c) band sizes, then unwind it.
	type level struct {
		r, c   int
		didRow bool
		didCol bool
	}
	var ladder [maxLevels]level
	levels := 0
	r, c := rows, cols
	for r >= 2 || c >= 2 {
		lv := level{r: r, c: c}
		if c >= 2 {
			lv.didRow = true
			c = (c + 1) / 2
		}
		if r >= 2 {
			lv.didCol = true
			r = (r + 1) / 2
		}
		ladder[levels] = lv
		levels++
	}
	tmp := scratch2D(rows, cols)
	defer parallel.PutFloats(tmp)
	for i := levels - 1; i >= 0; i-- {
		lv := ladder[i]
		rr, cc := lv.r, lv.c
		// The forward pass at this level saw (rr, cc); its row step worked
		// on width cc, its column step on height rr but only the first
		// ceil(cc/2) columns.
		lowC := cc
		if lv.didRow {
			lowC = (cc + 1) / 2
		}
		if lv.didCol {
			for x := 0; x < lowC; x += panelWidth {
				inverseStepPanel(data[x:], cols, min(panelWidth, lowC-x), rr, tmp)
			}
		}
		if lv.didRow {
			for j := 0; j < rr; j++ {
				row := data[j*cols : j*cols+cc]
				inverseStep(row, tmp)
			}
		}
	}
	return nil
}
