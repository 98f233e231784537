package hotalloc_test

import (
	"path/filepath"
	"testing"

	"geompc/internal/analysis"
	"geompc/internal/analysis/checkertest"
	"geompc/internal/analysis/hotalloc"
)

// TestFixture covers every allocation shape inside //geompc:hot functions
// (composite literals, make/new, closures, non-self appends), the allowed
// freelist/self-append idioms, the nolint escape hatch, and that untagged
// functions are ignored.
func TestFixture(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "hotalloc")
	checkertest.RunDirs(t, []analysis.DirSpec{{Dir: dir, ImportPath: "geompc/internal/runtime"}}, hotalloc.Analyzer)
}
