// Fixture audited package for preccast's chain rule: base name "fp16", the sanctioned
// conversion API. Lowerings here are the implementation, and edges crossing
// into this package sanitize the caller.
package fp16

// Quantize is the sanctioned lowering entry point.
func Quantize(x float64) float32 { return float32(x) }
