// Fixture helper package for preccast's chain rule: unaudited code with a
// lossy lowering buried one call deep. The cast is flagged where it is
// written (the zero-length chain), every chain reaching it at its edge.
package geo

import (
	fp16 "geompc/internal/fp16"
)

// Lower is the unaudited root: a silent float64→float32.
func Lower(x float64) float32 { return float32(x) } // want `preccast: lossy float64→float32 conversion outside the audited precision API`

// Via reaches the root through one frame: flagged at its own call edge.
func Via(x float64) float32 {
	return Lower(x) // want `preccast: call to geo.Lower reaches an unaudited float64→float32 conversion`
}

// Sanctioned routes through the audited API: the crossing edge sanitizes,
// no taint, no findings at callers.
func Sanctioned(x float64) float32 { return fp16.Quantize(x) }

// AuditedLower carries a reasoned suppression at the root: audited, clean.
func AuditedLower(x float64) float32 {
	return float32(x) //geompc:nolint preccast fixture: validated against the FP64 oracle in tests
}
