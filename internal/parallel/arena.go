package parallel

import (
	"math/bits"
	"sync"
)

// The arenas below are sync.Pool-backed scratch allocators for the codec
// hot loops and the preconditioning pipeline's field-sized temporaries. A
// kernel that needs a per-shard (or per-call) buffer takes it from the
// arena and returns it when done; steady-state compression then allocates
// nothing per block/symbol, which is where the allocs/op budget of the
// BENCH gate comes from.
//
// Returned slices have the requested length but UNSPECIFIED contents — the
// caller must fully initialise what it reads.
//
// Each arena keeps one pool per size class, so a small request never pins
// a large buffer and a large request never finds only small ones. Class
// sizes split every doubling into 1<<classBits steps (every size below 16
// is its own class): get(n) draws only from the smallest class whose size
// is at least n and allocates a capacity of exactly that size on a miss,
// so a buffer exceeds its request by less than an eighth; put files a
// slice under the largest class size not above its capacity. Pools store
// pointers to slices, and the pointers themselves are recycled through a
// second pool: get parks the emptied header there and put refills it, so
// a Get/Put cycle allocates nothing in steady state.

// classBits is the number of bits below the leading one that a class size
// keeps.
const classBits = 3

// classFloor returns the class of the largest class size <= n.
func classFloor(n int) int {
	shift := max(bits.Len(uint(n))-classBits-1, 0)
	return shift<<classBits + n>>shift
}

// classSize returns the size of class c, the inverse of classFloor on
// class sizes.
func classSize(c int) int {
	if c < 2<<classBits {
		return c
	}
	return (c&(1<<classBits-1) | 1<<classBits) << (c>>classBits - 1)
}

type slicePool[T any] struct {
	classes [(bits.UintSize - classBits) << classBits]sync.Pool // class c: *[]T with classFloor(cap) == c
	headers sync.Pool                                           // *[]T emptied by get, awaiting put
}

func (p *slicePool[T]) get(n int) []T {
	c := classFloor(n)
	if classSize(c) < n {
		c++
	}
	v, ok := p.classes[c].Get().(*[]T)
	if !ok {
		return make([]T, n, classSize(c))
	}
	s := *v
	*v = nil
	p.headers.Put(v)
	return s[:n]
}

func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	h, ok := p.headers.Get().(*[]T)
	if !ok {
		h = new([]T)
	}
	*h = s[:0]
	p.classes[classFloor(cap(s))].Put(h)
}

var (
	floatArena  slicePool[float64]
	int64Arena  slicePool[int64]
	uint64Arena slicePool[uint64]
	intArena    slicePool[int]
	byteArena   slicePool[byte]
)

// Floats returns a float64 scratch slice of length n from the arena.
func Floats(n int) []float64 { return floatArena.get(n) }

// PutFloats returns a slice obtained from Floats to the arena. The caller
// must not use s afterwards.
func PutFloats(s []float64) { floatArena.put(s) }

// Int64s returns an int64 scratch slice of length n from the arena.
func Int64s(n int) []int64 { return int64Arena.get(n) }

// PutInt64s returns a slice obtained from Int64s to the arena.
func PutInt64s(s []int64) { int64Arena.put(s) }

// Uint64s returns a uint64 scratch slice of length n from the arena.
func Uint64s(n int) []uint64 { return uint64Arena.get(n) }

// PutUint64s returns a slice obtained from Uint64s to the arena.
func PutUint64s(s []uint64) { uint64Arena.put(s) }

// Ints returns an int scratch slice of length n from the arena.
func Ints(n int) []int { return intArena.get(n) }

// PutInts returns a slice obtained from Ints to the arena.
func PutInts(s []int) { intArena.put(s) }

// Bytes returns a byte scratch slice of length n from the arena.
func Bytes(n int) []byte { return byteArena.get(n) }

// PutBytes returns a slice obtained from Bytes to the arena.
func PutBytes(s []byte) { byteArena.put(s) }
