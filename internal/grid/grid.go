// Package grid provides dense 1-, 2-, and 3-dimensional float64 fields,
// the common data container for simulation outputs, reduced models, and
// compressors in this repository.
//
// Data is stored row-major: the last dimension varies fastest. A Field of
// dims (nz, ny, nx) stores element (k, j, i) at index (k*ny+j)*nx+i, which
// matches the C-order layout used by the scientific codes the paper studies.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Field is a dense float64 array of rank 1 to 3.
type Field struct {
	// Dims holds the extents, outermost first. len(Dims) is the rank.
	Dims []int
	// Data holds len == product(Dims) values in row-major order.
	Data []float64
}

// New returns a zero-filled field with the given extents. It panics on
// invalid extents; decode paths handling untrusted dims use NewChecked.
func New(dims ...int) *Field {
	f, err := NewChecked(dims...)
	if err != nil {
		panic(err)
	}
	return f
}

// NewChecked is New for untrusted extents: it returns an error instead of
// panicking when the dims are out of range or their product overflows int.
func NewChecked(dims ...int) (*Field, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	return &Field{Dims: append([]int(nil), dims...), Data: make([]float64, n)}, nil
}

// FromData wraps data (not copied) as a field with the given extents.
func FromData(data []float64, dims ...int) (*Field, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v (want %d)", len(data), dims, n)
	}
	return &Field{Dims: append([]int(nil), dims...), Data: data}, nil
}

func checkDims(dims []int) (int, error) {
	if len(dims) == 0 || len(dims) > 3 {
		return 0, fmt.Errorf("grid: rank must be 1..3, got %d", len(dims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("grid: non-positive extent in %v", dims)
		}
		if n > math.MaxInt/d {
			// Without this guard the product wraps (e.g. three 2^32 extents
			// multiply to 0), yielding a Field whose Data is far smaller
			// than Dims claims — and index panics downstream.
			return 0, fmt.Errorf("grid: element count of dims %v overflows int", dims)
		}
		n *= d
	}
	return n, nil
}

// Rank returns the number of dimensions.
func (f *Field) Rank() int { return len(f.Dims) }

// Len returns the total number of elements.
func (f *Field) Len() int { return len(f.Data) }

// Clone returns a deep copy.
func (f *Field) Clone() *Field {
	g := &Field{Dims: append([]int(nil), f.Dims...), Data: make([]float64, len(f.Data))}
	copy(g.Data, f.Data)
	return g
}

// Index converts multi-indices (outermost first) to a flat offset.
func (f *Field) Index(idx ...int) int {
	if len(idx) != len(f.Dims) {
		panic(fmt.Sprintf("grid: index rank %d != field rank %d", len(idx), len(f.Dims)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= f.Dims[d] {
			panic(fmt.Sprintf("grid: index %d out of range [0,%d) in dim %d", i, f.Dims[d], d))
		}
		off = off*f.Dims[d] + i
	}
	return off
}

// At returns the element at the multi-index.
func (f *Field) At(idx ...int) float64 { return f.Data[f.Index(idx...)] }

// Set stores v at the multi-index.
func (f *Field) Set(v float64, idx ...int) { f.Data[f.Index(idx...)] = v }

// At2 is a fast path for rank-2 fields.
func (f *Field) At2(j, i int) float64 { return f.Data[j*f.Dims[1]+i] }

// Set2 is a fast path for rank-2 fields.
func (f *Field) Set2(v float64, j, i int) { f.Data[j*f.Dims[1]+i] = v }

// At3 is a fast path for rank-3 fields.
func (f *Field) At3(k, j, i int) float64 {
	return f.Data[(k*f.Dims[1]+j)*f.Dims[2]+i]
}

// Set3 is a fast path for rank-3 fields.
func (f *Field) Set3(v float64, k, j, i int) {
	f.Data[(k*f.Dims[1]+j)*f.Dims[2]+i] = v
}

// Plane extracts horizontal plane k of a rank-3 field as a rank-2 field.
// The returned field shares no storage with f.
func (f *Field) Plane(k int) *Field {
	if f.Rank() != 3 {
		panic("grid: Plane requires a rank-3 field")
	}
	nz, ny, nx := f.Dims[0], f.Dims[1], f.Dims[2]
	if k < 0 || k >= nz {
		panic(fmt.Sprintf("grid: plane %d out of range [0,%d)", k, nz))
	}
	p := New(ny, nx)
	copy(p.Data, f.Data[k*ny*nx:(k+1)*ny*nx])
	return p
}

// Row extracts row j of a rank-2 field as a rank-1 field (copied).
func (f *Field) Row(j int) *Field {
	if f.Rank() != 2 {
		panic("grid: Row requires a rank-2 field")
	}
	ny, nx := f.Dims[0], f.Dims[1]
	if j < 0 || j >= ny {
		panic(fmt.Sprintf("grid: row %d out of range [0,%d)", j, ny))
	}
	r := New(nx)
	copy(r.Data, f.Data[j*nx:(j+1)*nx])
	return r
}

// Matricize reports the shape of the canonical 2-D matrix view of the field:
// the last dimension becomes the column count and all leading dimensions are
// flattened into rows. Data is already laid out in this order, so the matrix
// shares f.Data.
func (f *Field) Matricize() (rows, cols int) {
	cols = f.Dims[len(f.Dims)-1]
	rows = len(f.Data) / cols
	return rows, cols
}

// Sub returns f - g element-wise. The fields must have identical dims.
func (f *Field) Sub(g *Field) (*Field, error) {
	if !sameDims(f.Dims, g.Dims) {
		return nil, fmt.Errorf("grid: dims mismatch %v vs %v", f.Dims, g.Dims)
	}
	out := f.Clone()
	for i, v := range g.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// SubFrom replaces f with g − f element-wise: the difference Sub would
// return for g.Sub(f), written into f's buffer instead of a new field.
func (f *Field) SubFrom(g *Field) error {
	if !sameDims(f.Dims, g.Dims) {
		return fmt.Errorf("grid: dims mismatch %v vs %v", g.Dims, f.Dims)
	}
	d := f.Data[:len(g.Data)]
	for i, v := range g.Data {
		d[i] = v - d[i]
	}
	return nil
}

// AddInPlace adds g into f element-wise.
func (f *Field) AddInPlace(g *Field) error {
	if !sameDims(f.Dims, g.Dims) {
		return fmt.Errorf("grid: dims mismatch %v vs %v", f.Dims, g.Dims)
	}
	for i, v := range g.Data {
		f.Data[i] += v
	}
	return nil
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MinMax returns the smallest and largest values. It panics on empty data.
func (f *Field) MinMax() (lo, hi float64) {
	lo, hi = f.Data[0], f.Data[0]
	for _, v := range f.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// MaxAbs returns the largest absolute value.
func (f *Field) MaxAbs() float64 {
	m := 0.0
	for _, v := range f.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether g has the same dims and every element within eps.
func (f *Field) Equal(g *Field, eps float64) bool {
	if !sameDims(f.Dims, g.Dims) {
		return false
	}
	for i, v := range f.Data {
		if math.Abs(v-g.Data[i]) > eps {
			return false
		}
	}
	return true
}

// Bytes serialises the raw values as little-endian float64s (no header).
func (f *Field) Bytes() []byte {
	b := make([]byte, 8*len(f.Data))
	for i, v := range f.Data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FromBytes parses little-endian float64s into a field with the given dims.
// It is ReadField over an in-memory slice, without the read buffer: the
// whole of b has arrived, so the field is allocated at once.
func FromBytes(b []byte, dims ...int) (*Field, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != 8*int64(n) || n > math.MaxInt/8 {
		return nil, lengthError(int64(len(b)), dims, n)
	}
	f := &Field{Dims: append([]int(nil), dims...), Data: make([]float64, n)}
	unpackLE(f.Data, b)
	return f, nil
}

// readBufBytes is ReadField's read buffer size, a multiple of 8.
const readBufBytes = 64 << 10

var readBufs = sync.Pool{New: func() any { b := make([]byte, readBufBytes); return &b }}

// ReadField reads a field of the given dims from r as little-endian
// float64s, through pooled read buffers, writing the values straight into
// the field. Nothing is sized by dims alone: the field is allocated once
// the bytes received back at least half of it (8·n ≤ 2·received + one
// buffer); the bytes before that wait in pooled buffers. A claim of
// billions of values followed by a few bytes therefore costs what those
// bytes cost.
//
// r is read to EOF. An error from r is returned as is; a byte count other
// than 8·n is FromBytes' length error.
func ReadField(r io.Reader, dims ...int) (*Field, error) {
	n, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	want := int64(math.MaxInt64) // unreachable when 8·n overflows
	if n <= math.MaxInt/8 {
		want = 8 * int64(n)
	}
	var (
		data    []float64
		pos     int       // values written to data
		pending []*[]byte // full buffers received before data was allocated
		total   int64     // bytes received
	)
	defer func() {
		for _, p := range pending {
			readBufs.Put(p)
		}
	}()
	bufp := readBufs.Get().(*[]byte)
	defer func() { readBufs.Put(bufp) }()
	for {
		m, rerr := io.ReadFull(r, *bufp)
		total += int64(m)
		if data == nil && want <= 2*total+readBufBytes {
			data = make([]float64, n)
			for _, p := range pending {
				pos += unpackLE(data[pos:], *p)
				readBufs.Put(p)
			}
			pending = pending[:0]
		}
		switch {
		case data != nil:
			pos += unpackLE(data[pos:], (*bufp)[:m])
		case rerr == nil:
			pending = append(pending, bufp)
			bufp = readBufs.Get().(*[]byte)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	if total != want {
		return nil, lengthError(total, dims, n)
	}
	return &Field{Dims: append([]int(nil), dims...), Data: data}, nil
}

// unpackLE decodes the whole little-endian float64s of b into dst, as many
// as both hold, and returns how many it wrote. It is the one unpacking loop
// behind FromBytes and ReadField.
func unpackLE(dst []float64, b []byte) int {
	k := min(len(dst), len(b)/8)
	dst, b = dst[:k], b[:8*k]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return k
}

// lengthError reports a byte count that does not match dims (of n values).
func lengthError(got int64, dims []int, n int) error {
	return fmt.Errorf("grid: byte length %d does not match dims %v (want %d)", got, dims, 8*n)
}

// ErrRank is returned when an operation receives a field of unsupported rank.
var ErrRank = errors.New("grid: unsupported rank")
