package lockcheck_test

import (
	"path/filepath"
	"testing"

	"geompc/internal/analysis"
	"geompc/internal/analysis/checkertest"
	"geompc/internal/analysis/lockcheck"
)

// TestFixture covers bracketed pairs (deferred and straight-line), a
// branch-only unlock, a missing unlock, an RLock/Unlock mismatch, the
// nolint hand-off pattern, and mutex copies through interface boxing.
func TestFixture(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "lockcheck")
	checkertest.RunDirs(t, []analysis.DirSpec{{Dir: dir, ImportPath: "geompc/internal/obs"}}, lockcheck.Analyzer)
}
