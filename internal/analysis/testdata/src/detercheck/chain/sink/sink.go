// Fixture sink for detercheck's chain rule: a package in the
// deterministic set (base name "sched") calling into ../helpers. Every edge
// that reaches a nondeterminism source is flagged here, at the boundary;
// edges to clean or audited helpers are not.
package sink

import (
	core "geompc/internal/core"
)

// Schedule consumes helper results in a digest-relevant order.
func Schedule(m map[int]int) float64 {
	t := core.WallClock()        // want `detercheck: call to core.WallClock carries nondeterminism`
	t += core.Indirect()         // want `detercheck: call to core.Indirect carries nondeterminism.*core.Indirect → core.WallClock`
	t += float64(core.Draw())    // want `detercheck: call to core.Draw carries nondeterminism`
	keys := core.KeysUnsorted(m) // want `detercheck: call to core.KeysUnsorted carries nondeterminism.*map iteration order`
	for _, k := range keys {
		t += float64(k)
	}
	return t
}

// CleanSchedule uses only the clean helpers: nothing is flagged.
func CleanSchedule(m map[int]int) float64 {
	t := core.Audited()
	for _, k := range core.KeysSorted(m) {
		t += float64(k)
	}
	return t
}

// Callback stores a tainted function value: the reference itself is the
// leak — the engine may invoke it later.
func Callback() func() float64 {
	return core.WallClock // want `detercheck: reference to core.WallClock carries nondeterminism`
}
