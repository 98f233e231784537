package linalg

import (
	"math/bits"
	"sync"
)

// Scratch pools avoid per-kernel allocation churn: the mixed-precision
// emulations pack their operands into typed staging buffers on every call,
// which would otherwise dominate GC time for small tiles. Buffers grow to
// the next power of two so a sequence of slightly-different tile shapes
// (remainder tiles, mixed m/n/k) settles on one capacity instead of
// reallocating at each new size.

func scratchCap(n int) int {
	if n <= 4096 {
		return 4096
	}
	return 1 << bits.Len(uint(n-1))
}

var f32Pool = sync.Pool{New: func() any { s := make([]float32, 0, 4096); return &s }}

//geompc:hot
func f32Scratch(n int) []float32 {
	p := f32Pool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n, scratchCap(n)) //geompc:nolint hotalloc grows once to the next power of two, then the pooled buffer is reused
	}
	return (*p)[:n]
}

func putF32(s []float32) {
	s = s[:0]
	f32Pool.Put(&s)
}

var f64Pool = sync.Pool{New: func() any { s := make([]float64, 0, 4096); return &s }}

//geompc:hot
func f64Scratch(n int) []float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n, scratchCap(n)) //geompc:nolint hotalloc grows once to the next power of two, then the pooled buffer is reused
	}
	return (*p)[:n]
}

func putF64(s []float64) {
	s = s[:0]
	f64Pool.Put(&s)
}
