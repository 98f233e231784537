package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers are the share.<layer> rows of the per-layer table, in print
// order. A sample whose innermost geompc/internal package is not listed
// here, or that has no geompc frame at all, lands in "other".
var profileLayers = []string{
	"geo", "bessel", "precmap", "tile", "prec", "linalg", "fp16",
	"cholesky", "runtime", "sched", "comm", "plan", "obs", "mle",
	"optimize", "sweep",
}

// Rows for samples whose innermost frame belongs to the Go runtime's
// memory manager or to its goroutine/channel machinery.
const (
	rowGC         = "gc"
	rowGoroutines = "goroutines"
	rowOther      = "other"
)

// profileSample is one stack of a CPU profile, leaf first, with its
// sampled CPU nanoseconds.
type profileSample struct {
	stack []string
	nanos int64
}

// foldProfile attributes every sample to one row and returns each row's
// share of the total sampled CPU time, for every row of shareRows (rows
// without samples read 0). The shares sum to 1 whenever any time was
// sampled. Walking the stack from the leaf, the first frame that decides
// wins: a GC/allocator symbol (row gc), a goroutine/channel symbol (row
// goroutines), or a geompc/internal/<pkg> function (row <pkg>), so time
// in math.Exp called from geo.CovTile counts as geo.
func foldProfile(samples []profileSample) map[string]float64 {
	known := make(map[string]bool, len(profileLayers))
	for _, l := range profileLayers {
		known[l] = true
	}
	acc := make(map[string]int64)
	var total int64
	for _, s := range samples {
		row := classifyStack(s.stack)
		if row != rowGC && row != rowGoroutines && row != rowOther && !known[row] {
			row = rowOther
		}
		acc[row] += s.nanos
		total += s.nanos
	}
	shares := make(map[string]float64)
	for _, r := range shareRows() {
		if total > 0 {
			shares[r] = float64(acc[r]) / float64(total)
		} else {
			shares[r] = 0
		}
	}
	return shares
}

// shareRows lists every row foldProfile reports.
func shareRows() []string {
	return append(append([]string(nil), profileLayers...), rowGC, rowGoroutines, rowOther)
}

func classifyStack(stack []string) string {
	for _, fn := range stack {
		if isGCSymbol(fn) {
			return rowGC
		}
		if isGoroutineSymbol(fn) {
			return rowGoroutines
		}
		if pkg, ok := geompcPackage(fn); ok {
			return pkg
		}
	}
	return rowOther
}

// geompcPackage returns <pkg> for a function of geompc/internal/<pkg>
// (or of one of its subpackages).
func geompcPackage(fn string) (string, bool) {
	const prefix = "geompc/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// The symbol groups follow the runtime's own functional grouping: memory
// management and garbage collection in one group, goroutine scheduling and
// channel operations in the other.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.(*gc", "runtime.mallocgc", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*mspan)",
		"runtime.(*pageAlloc)", "runtime.(*scavenger", "runtime.bgscavenge",
		"runtime.bgsweep", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.scanframeworker", "runtime.greyobject", "runtime.findObject",
		"runtime.wbBuf", "runtime.(*wbBuf)", "runtime.bulkBarrierPreWrite",
		"runtime.gcWriteBarrier", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.heapSetType", "runtime.(*gcWork)",
		"runtime.(*gcBits)", "runtime.nextFreeFast", "runtime.memclrNoHeapPointersChunked",
		"runtime.sysAlloc", "runtime.sysUsed", "runtime.sysUnused", "runtime.madvise",
		"runtime.(*sweepLocked)", "runtime.(*activeSweep)", "runtime.(*mSpanStateBox)",
		"runtime.mProf", "runtime.profilealloc", "runtime.(*limiterEvent)",
		"runtime.typePointers", "runtime.(*typePointers)", "runtime.wbMove",
	}
	goroutinePrefixes = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.findrunnable",
		"runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.newproc", "runtime.goexit", "runtime.gogo", "runtime.mcall",
		"runtime.casgstatus", "runtime.runqget", "runtime.runqput", "runtime.runqgrab",
		"runtime.runqsteal", "runtime.stealWork", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.notesleep", "runtime.notewakeup", "runtime.futex",
		"runtime.futexsleep", "runtime.futexwakeup", "runtime.mPark", "runtime.handoffp",
		"runtime.resetspinning", "runtime.chanrecv", "runtime.chansend", "runtime.closechan",
		"runtime.makechan", "runtime.selectgo", "runtime.selparkcommit",
		"runtime.chanparkcommit", "runtime.semacquire", "runtime.semrelease",
		"runtime.lock2", "runtime.unlock2", "runtime.osyield", "runtime.usleep",
		"runtime.procyield", "runtime.netpoll", "runtime.sysmon", "runtime.retake",
		"runtime.preemptone", "runtime.goschedImpl", "runtime.gosched_m",
		"runtime.exitsyscall", "runtime.entersyscall", "runtime.checkTimers",
		"sync.(*Mutex)", "sync.(*WaitGroup)", "sync.runtime_",
	}
)

func isGCSymbol(fn string) bool        { return hasAnyPrefix(fn, gcPrefixes) }
func isGoroutineSymbol(fn string) bool { return hasAnyPrefix(fn, goroutinePrefixes) }

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// parseCPUProfile decodes the gzipped profile.proto written by
// runtime/pprof into leaf-first stacks of function names (inlined frames
// expanded) weighted by the "cpu" sample value in nanoseconds.
func parseCPUProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
	)
	err = forEachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			if err := forEachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s rawSample
			if err := forEachField(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, pb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := forEachField(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forEachField(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := forEachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				stack = append(stack, str(funcName[fid]))
			}
		}
		out = append(out, profileSample{stack: stack, nanos: s.values[cpuIdx]})
	}
	return out, nil
}

// forEachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds the
// payload. Fixed-width fields are skipped.
func forEachField(msg []byte, visit func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := visit(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
