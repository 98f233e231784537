// Fixture consumer package for preccast's chain rule: calls into ../geo and must be
// flagged exactly where a chain reaches the unaudited lowering.
package consumer

import (
	geo "geompc/internal/geo"
)

// UseVia reaches Lower through Via: the finding's chain names both hops.
func UseVia(x float64) float32 {
	return geo.Via(x) // want `preccast: call to geo.Via reaches an unaudited float64→float32 conversion \(geo.Lower:`
}

// UseSanctioned goes through the audited API: clean.
func UseSanctioned(x float64) float32 { return geo.Sanctioned(x) }

// UseAudited calls the suppressed root: clean.
func UseAudited(x float64) float32 { return geo.AuditedLower(x) }

// Handle stores the tainted function as a value: the reference leaks the
// lowering just as a call would.
func Handle() func(float64) float32 {
	return geo.Via // want `preccast: reference to geo.Via reaches an unaudited float64→float32 conversion`
}
