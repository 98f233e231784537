package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

// syntheticProfile encodes one CPU profile whose samples have the given
// leaf-first stacks and nanosecond values. Every function gets its own
// location, except that the first two frames of inlined stacks share one
// location, as the runtime records inlining.
func syntheticProfile(t *testing.T, stacks [][]string, nanos []int64, inlined bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := map[string]int{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return uint64(i)
		}
		idx[s] = len(strs)
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for si, stack := range stacks {
		var locIDs []uint64
		for i := 0; i < len(stack); {
			frames := stack[i : i+1]
			if inlined && i == 0 && len(stack) > 1 {
				frames = stack[:2]
			}
			var loc pb
			loc.varint(1, nextLoc)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, str(fn))
					prof.bytes(5, f.b)
				}
				var line pb
				line.varint(1, id)
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locIDs = append(locIDs, nextLoc)
			nextLoc++
			i += len(frames)
		}
		var s, packed pb
		for _, id := range locIDs {
			packed.b = binary.AppendUvarint(packed.b, id)
		}
		s.bytes(1, packed.b)
		var vals pb
		vals.b = binary.AppendUvarint(vals.b, 1)
		vals.b = binary.AppendUvarint(vals.b, uint64(nanos[si]))
		s.bytes(2, vals.b)
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		{"math.Exp", "geompc/internal/geo.SqExp.Cov", "geompc/internal/geo.CovTile", "geompc/internal/mle.(*Problem).NegLogLik"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "geompc/internal/tile.NewMatrix"},
		{"runtime.chanrecv", "runtime.chanrecv2", "geompc/internal/mle.MonteCarlo.func1"},
		{"geompc/internal/linalg.gemmKernel", "geompc/internal/cholesky.(*graph).gemmBody.func1"},
		{"geompc/internal/stats.(*RNG).Float64", "main.main"},
		{"syscall.Syscall"},
		{"geompc/internal/runtime/destest.Run", "main.main"},
	}
	nanos := []int64{40, 10, 10, 5, 20, 5, 5, 5}
	want := map[string]float64{
		"geo": 0.4, "gc": 0.2, "goroutines": 0.05, "linalg": 0.2, "other": 0.1, "runtime": 0.05,
	}
	for _, inlined := range []bool{false, true} {
		samples, err := parseCPUProfile(syntheticProfile(t, stacks, nanos, inlined))
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != len(stacks) {
			t.Fatalf("inlined=%v: %d samples, want %d", inlined, len(samples), len(stacks))
		}
		for i, s := range samples {
			if len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] || s.nanos != nanos[i] {
				t.Fatalf("inlined=%v: sample %d = %v/%d, want %v/%d", inlined, i, s.stack, s.nanos, stacks[i], nanos[i])
			}
		}
		shares := foldProfile(samples)
		var sum float64
		for _, r := range shareRows() {
			got, ok := shares[r]
			if !ok {
				t.Fatalf("row %s missing", r)
			}
			if math.Abs(got-want[r]) > 1e-12 {
				t.Errorf("inlined=%v: share %s = %v, want %v", inlined, r, got, want[r])
			}
			sum += got
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("inlined=%v: shares sum to %v, want 1", inlined, sum)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("parsed garbage")
	}
}
