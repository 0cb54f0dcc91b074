// Package wavelet implements the multilevel orthonormal Haar transform and
// the thresholded sparse representation used by the paper's Wavelet reduced
// model (Section V-A.3): transform rows, then columns, zero the near-zero
// coefficients, and store the surviving ones sparsely.
package wavelet

import (
	"encoding/binary"
	"fmt"
	"math"

	"lrm/internal/compress"
	"lrm/internal/parallel"
)

// invSqrt2 scales the Haar sum/difference pairs so the transform is
// orthonormal (energy preserving), which makes thresholds comparable across
// levels.
var invSqrt2 = 1 / math.Sqrt2

// panelWidth is how many adjacent columns the column pass transforms
// together: eight float64s, one 64-byte cache line of every row, so each
// step reads and writes whole lines instead of one element per row.
const panelWidth = 8

// maxLevels bounds the band-size ladder: every level halves (rounding up) a
// band of fewer than 2^63 elements, so no transform has more levels.
const maxLevels = 64

// forwardStep transforms one level in place: pair sums go to the front half
// of v, pair differences to the back half. For odd lengths the trailing
// element is carried into the low band unchanged. It returns the size of the
// low band.
func forwardStep(v []float64, tmp []float64) int {
	n := len(v)
	pairs := n / 2
	low := (n + 1) / 2
	for i := 0; i < pairs; i++ {
		a, b := v[2*i], v[2*i+1]
		tmp[i] = (a + b) * invSqrt2
		tmp[low+i] = (a - b) * invSqrt2
	}
	if n%2 == 1 {
		tmp[pairs] = v[n-1]
	}
	copy(v, tmp[:n])
	return low
}

// inverseStep undoes forwardStep for a band of size n with low band `low`.
func inverseStep(v []float64, tmp []float64) {
	n := len(v)
	pairs := n / 2
	low := (n + 1) / 2
	for i := 0; i < pairs; i++ {
		s, d := v[i], v[low+i]
		tmp[2*i] = (s + d) * invSqrt2
		tmp[2*i+1] = (s - d) * invSqrt2
	}
	if n%2 == 1 {
		tmp[n-1] = v[pairs]
	}
	copy(v, tmp[:n])
}

// forwardStepPanel is forwardStep applied to the first n rows of w ≤
// panelWidth adjacent columns at once: d holds the panel's first row at
// d[:w] and row r at d[r*stride:]. tmp needs n*w elements. Every element
// gets forwardStep's arithmetic; only the traversal differs.
func forwardStepPanel(d []float64, stride, w, n int, tmp []float64) int {
	pairs := n / 2
	low := (n + 1) / 2
	for i := 0; i < pairs; i++ {
		ra, rb := d[2*i*stride:][:w], d[(2*i+1)*stride:][:w]
		ts, td := tmp[i*w:][:w], tmp[(low+i)*w:][:w]
		for j, a := range ra {
			b := rb[j]
			ts[j] = (a + b) * invSqrt2
			td[j] = (a - b) * invSqrt2
		}
	}
	if n%2 == 1 {
		copy(tmp[pairs*w:][:w], d[(n-1)*stride:][:w])
	}
	for r := 0; r < n; r++ {
		copy(d[r*stride:][:w], tmp[r*w:][:w])
	}
	return low
}

// inverseStepPanel undoes forwardStepPanel for a band of n rows.
func inverseStepPanel(d []float64, stride, w, n int, tmp []float64) {
	pairs := n / 2
	low := (n + 1) / 2
	for i := 0; i < pairs; i++ {
		rs, rd := d[i*stride:][:w], d[(low+i)*stride:][:w]
		ta, tb := tmp[2*i*w:][:w], tmp[(2*i+1)*w:][:w]
		for j, s := range rs {
			dd := rd[j]
			ta[j] = (s + dd) * invSqrt2
			tb[j] = (s - dd) * invSqrt2
		}
	}
	if n%2 == 1 {
		copy(tmp[(n-1)*w:][:w], d[pairs*stride:][:w])
	}
	for r := 0; r < n; r++ {
		copy(d[r*stride:][:w], tmp[r*w:][:w])
	}
}

// bandLadder returns the band sizes n, ⌈n/2⌉, ... (all ≥ 2) that the
// multilevel transform of length n visits, stored in buf.
func bandLadder(n int, buf *[maxLevels]int) []int {
	k := 0
	for ; n >= 2; n = (n + 1) / 2 {
		buf[k] = n
		k++
	}
	return buf[:k]
}

// forwardLevels is the multilevel forward transform of v with scratch tmp.
func forwardLevels(v, tmp []float64) {
	for n := len(v); n >= 2; {
		n = forwardStep(v[:n], tmp)
	}
}

// inverseLevels undoes forwardLevels by unwinding the band ladder of v's
// length.
func inverseLevels(v, tmp []float64, ladder []int) {
	for k := len(ladder) - 1; k >= 0; k-- {
		inverseStep(v[:ladder[k]], tmp)
	}
}

// Forward1D applies the full multilevel Haar transform to v in place,
// recursing on the low band until a single coefficient remains.
func Forward1D(v []float64) {
	tmp := parallel.Floats(len(v))
	forwardLevels(v, tmp)
	parallel.PutFloats(tmp)
}

// Inverse1D undoes Forward1D in place.
func Inverse1D(v []float64) {
	tmp := parallel.Floats(len(v))
	var buf [maxLevels]int
	inverseLevels(v, tmp, bandLadder(len(v), &buf))
	parallel.PutFloats(tmp)
}

// scratch2D returns the one scratch buffer a 2-D transform needs: a row,
// or a panel of the full column height, whichever is larger.
func scratch2D(rows, cols int) []float64 {
	return parallel.Floats(max(cols, panelWidth*rows))
}

// Forward2D applies the standard (separable) decomposition to a row-major
// rows×cols matrix in place: the full 1-D transform to every row, then to
// every column. This matches the paper's Step 1 / Step 2 description. The
// columns are transformed panelWidth at a time, straight from the matrix.
func Forward2D(data []float64, rows, cols int) error {
	if rows*cols != len(data) {
		return fmt.Errorf("wavelet: %d values do not fit %dx%d", len(data), rows, cols)
	}
	tmp := scratch2D(rows, cols)
	defer parallel.PutFloats(tmp)
	for r := 0; r < rows; r++ {
		forwardLevels(data[r*cols:(r+1)*cols], tmp)
	}
	for c := 0; c < cols; c += panelWidth {
		w := min(panelWidth, cols-c)
		for n := rows; n >= 2; {
			n = forwardStepPanel(data[c:], cols, w, n, tmp)
		}
	}
	return nil
}

// Inverse2D undoes Forward2D.
func Inverse2D(data []float64, rows, cols int) error {
	if rows*cols != len(data) {
		return fmt.Errorf("wavelet: %d values do not fit %dx%d", len(data), rows, cols)
	}
	tmp := scratch2D(rows, cols)
	defer parallel.PutFloats(tmp)
	var colBuf, rowBuf [maxLevels]int
	colLadder := bandLadder(rows, &colBuf)
	for c := 0; c < cols; c += panelWidth {
		w := min(panelWidth, cols-c)
		for k := len(colLadder) - 1; k >= 0; k-- {
			inverseStepPanel(data[c:], cols, w, colLadder[k], tmp)
		}
	}
	rowLadder := bandLadder(cols, &rowBuf)
	for r := 0; r < rows; r++ {
		inverseLevels(data[r*cols:(r+1)*cols], tmp, rowLadder)
	}
	return nil
}

// Threshold zeroes every element with |v| < theta and returns how many
// survive. theta <= 0 keeps everything.
func Threshold(data []float64, theta float64) (kept int) {
	if theta <= 0 {
		return len(data)
	}
	for i, v := range data {
		if math.Abs(v) < theta {
			data[i] = 0
		} else {
			kept++
		}
	}
	return kept
}

// Sparse is a coordinate-list sparse view of a dense rows×cols matrix.
type Sparse struct {
	Rows, Cols int
	Index      []int // flat indices, strictly increasing
	Value      []float64
}

// ToSparse collects the nonzero entries of data.
func ToSparse(data []float64, rows, cols int) (*Sparse, error) {
	if rows*cols != len(data) {
		return nil, fmt.Errorf("wavelet: %d values do not fit %dx%d", len(data), rows, cols)
	}
	s := &Sparse{Rows: rows, Cols: cols}
	for i, v := range data {
		if v != 0 {
			s.Index = append(s.Index, i)
			s.Value = append(s.Value, v)
		}
	}
	return s, nil
}

// Dense expands the sparse matrix back to a dense row-major slice.
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Rows*s.Cols)
	for i, idx := range s.Index {
		out[idx] = s.Value[i]
	}
	return out
}

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.Index) }

// Encode serialises the sparse matrix: dims, count, delta-varint indices,
// then raw little-endian float64 values. Delta coding keeps the index
// overhead near one byte per nonzero for clustered coefficients.
func (s *Sparse) Encode() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(s.Rows))
	b = binary.AppendUvarint(b, uint64(s.Cols))
	b = binary.AppendUvarint(b, uint64(len(s.Index)))
	prev := 0
	for _, idx := range s.Index {
		b = binary.AppendUvarint(b, uint64(idx-prev))
		prev = idx
	}
	for _, v := range s.Value {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodeSparse reverses Encode.
func DecodeSparse(b []byte) (*Sparse, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("wavelet: truncated sparse header: %w", compress.ErrTruncated)
		}
		pos += n
		return v, nil
	}
	rows, err := next()
	if err != nil {
		return nil, err
	}
	cols, err := next()
	if err != nil {
		return nil, err
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("wavelet: zero dimension: %w", compress.ErrHeader)
	}
	if count > rows*cols {
		return nil, fmt.Errorf("wavelet: nnz %d exceeds matrix size: %w", count, compress.ErrCorrupt)
	}
	s := &Sparse{Rows: int(rows), Cols: int(cols)}
	s.Index = make([]int, count)
	s.Value = make([]float64, count)
	prev := uint64(0)
	for i := range s.Index {
		d, err := next()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev >= rows*cols {
			return nil, fmt.Errorf("wavelet: sparse index out of range: %w", compress.ErrCorrupt)
		}
		s.Index[i] = int(prev)
	}
	if len(b)-pos < 8*int(count) {
		return nil, fmt.Errorf("wavelet: truncated sparse values: %w", compress.ErrTruncated)
	}
	for i := range s.Value {
		s.Value[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		pos += 8
	}
	return s, nil
}
