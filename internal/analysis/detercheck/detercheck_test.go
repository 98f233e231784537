package detercheck_test

import (
	"path/filepath"
	"sort"
	"testing"

	"geompc/internal/analysis"
	"geompc/internal/analysis/checkertest"
	"geompc/internal/analysis/detercheck"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"..", "testdata", "src", "detercheck"}, elem...)...)
}

// TestRestricted runs the fixture as each deterministic package in turn:
// map-order leaks, time.Now and global rand are flagged in every one;
// sorted collection, commutative bodies, faults.go and seeded construction
// are not.
func TestRestricted(t *testing.T) {
	var pkgs []string
	for p := range detercheck.DeterministicPkgs {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		t.Run(p, func(t *testing.T) {
			checkertest.RunDirs(t, []analysis.DirSpec{
				{Dir: fixture("restricted"), ImportPath: "geompc/internal/" + p},
			}, detercheck.Analyzer)
		})
	}
}

// TestFree runs the same shapes as a package outside the deterministic set:
// nothing is flagged.
func TestFree(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("free"), ImportPath: "geompc/internal/geo"},
	}, detercheck.Analyzer)
}

// TestSinkBoundary loads a helper package outside the deterministic set and
// a deterministic package (base "sched") calling into it: taint from
// time.Now, the global rand source and escaping map ranges is flagged at
// the deterministic package's call and reference edges; sorted collection,
// seeded sources and reasoned suppressions are not. The helper package
// itself reports nothing.
func TestSinkBoundary(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("chain", "helpers"), ImportPath: "geompc/internal/core"},
		{Dir: fixture("chain", "sink"), ImportPath: "geompc/internal/sched"},
	}, detercheck.Analyzer)
}

// TestBackendContract loads a fixture solver package declaring Backend and
// an implementation package: the implementation whose Solve reads the wall
// clock is flagged at the method declaration, the deterministic one and
// the non-implementing lookalike are not.
func TestBackendContract(t *testing.T) {
	checkertest.RunDirs(t, []analysis.DirSpec{
		{Dir: fixture("backend", "solver"), ImportPath: "geompc/internal/solver"},
		{Dir: fixture("backend", "backends"), ImportPath: "geompc/internal/cgsolve"},
	}, detercheck.Analyzer)
}
