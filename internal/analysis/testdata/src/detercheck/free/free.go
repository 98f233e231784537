// Fixture for detercheck, loaded as geompc/internal/geo — not a
// deterministic package, so neither rule applies.
package geo

import "time"

func anything(m map[string]float64) (float64, int64) {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s, time.Now().Unix()
}
