package preccast_test

import (
	"path/filepath"
	"testing"

	"geompc/internal/analysis"
	"geompc/internal/analysis/checkertest"
	"geompc/internal/analysis/preccast"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"..", "testdata", "src", "preccast"}, elem...)...)
}

// TestOutside: in an unaudited package every lossy down-cast and
// bit-twiddle is flagged; exact conversions and constants are not.
func TestOutside(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("outside"), ImportPath: "geompc/internal/mle"},
	}, preccast.Analyzer)
}

// TestAudited: the same expressions inside the conversion API are the
// implementation, not a violation.
func TestAudited(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("audited"), ImportPath: "geompc/internal/fp16"},
	}, preccast.Analyzer)
}

// TestLoweringChains loads the audited conversion package (base "fp16"), a
// helper with a buried unaudited lowering, and a consumer: the raw cast is
// flagged where it is written, every chain that reaches it is flagged at
// its call and reference edges, and routes through the audited API and
// reasoned suppressions stay clean.
func TestLoweringChains(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("chain", "fp16"), ImportPath: "geompc/internal/fp16"},
		{Dir: fixture("chain", "geo"), ImportPath: "geompc/internal/geo"},
		{Dir: fixture("chain", "consumer"), ImportPath: "geompc/internal/mle"},
	}, preccast.Analyzer)
}
