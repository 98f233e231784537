package analysis

import (
	"go/ast"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stub flags every call to a function literally named boom, so the driver's
// suppression logic can be tested without dragging in a real analyzer.
var stub = &Analyzer{
	Name: "stub",
	Doc:  "flags calls to boom",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
						pass.Reportf(call.Pos(), "boom call")
					}
				}
				return true
			})
		}
	},
}

// loadSource type-checks one source string as a one-package program.
func loadSource(t *testing.T, src string) []*Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDirs(DirSpec{Dir: dir, ImportPath: "geompc/internal/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func runStub(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return Run(loadSource(t, src), []*Analyzer{stub})
}

const header = "package fixture\n\nfunc boom() {}\nfunc ok() {}\n\n"

func messages(ds []Diagnostic) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func wantOne(t *testing.T, ds []Diagnostic, analyzer, substr string) {
	t.Helper()
	for _, d := range ds {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("no %s diagnostic containing %q in %v", analyzer, substr, messages(ds))
}

// TestNolintSuppresses: a well-formed directive removes the diagnostic and
// produces nothing else, both trailing and on the line above.
func TestNolintSuppresses(t *testing.T) {
	for _, src := range []string{
		header + "func f() { boom() //geompc:nolint stub fixture needs the call\n}\n",
		header + "func f() {\n\t//geompc:nolint stub fixture needs the call\n\tboom()\n}\n",
	} {
		if ds := runStub(t, src); len(ds) != 0 {
			t.Errorf("want no diagnostics, got %v", messages(ds))
		}
	}
}

// TestNolintWrongAnalyzer: naming an unknown analyzer is a diagnostic of
// its own, and the suppression does not take effect.
func TestNolintWrongAnalyzer(t *testing.T) {
	ds := runStub(t, header+"func f() { boom() //geompc:nolint stob typo in the name\n}\n")
	if len(ds) != 2 {
		t.Fatalf("want 2 diagnostics (stub + nolint), got %v", messages(ds))
	}
	wantOne(t, ds, "stub", "boom call")
	wantOne(t, ds, NolintAnalyzerName, `unknown analyzer "stob"`)
}

// TestNolintMissingReason: the reason is mandatory; without it the
// directive neither suppresses nor passes.
func TestNolintMissingReason(t *testing.T) {
	ds := runStub(t, header+"func f() { boom() //geompc:nolint stub\n}\n")
	if len(ds) != 2 {
		t.Fatalf("want 2 diagnostics (stub + nolint), got %v", messages(ds))
	}
	wantOne(t, ds, "stub", "boom call")
	wantOne(t, ds, NolintAnalyzerName, "missing its mandatory reason")
}

// TestNolintExpired: a directive whose diagnostic is gone must be deleted.
func TestNolintExpired(t *testing.T) {
	ds := runStub(t, header+"func f() { ok() //geompc:nolint stub this used to be a boom call\n}\n")
	if len(ds) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", messages(ds))
	}
	wantOne(t, ds, NolintAnalyzerName, "expired //geompc:nolint")
}

// TestNolintBare: a directive with no analyzer at all.
func TestNolintBare(t *testing.T) {
	ds := runStub(t, header+"func f() { boom() //geompc:nolint\n}\n")
	wantOne(t, ds, NolintAnalyzerName, "needs an analyzer name and a reason")
	wantOne(t, ds, "stub", "boom call")
}

// TestNolintCannotSuppressNolint: the meta-analyzer name is reserved.
func TestNolintCannotSuppressNolint(t *testing.T) {
	ds := runStub(t, header+"func f() { ok() //geompc:nolint nolint because I say so\n}\n")
	wantOne(t, ds, NolintAnalyzerName, "cannot be suppressed")
}

// TestDiagnosticOrder: diagnostics come back sorted by position regardless
// of analyzer registration order.
func TestDiagnosticOrder(t *testing.T) {
	src := header + "func f() { boom(); boom() }\n\nfunc g() { boom() }\n"
	ds := runStub(t, src)
	if len(ds) != 3 {
		t.Fatalf("want 3 diagnostics, got %v", messages(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Pos.Line < ds[i-1].Pos.Line ||
			(ds[i].Pos.Line == ds[i-1].Pos.Line && ds[i].Pos.Column < ds[i-1].Pos.Column) {
			t.Errorf("diagnostics out of order: %v before %v", ds[i-1], ds[i])
		}
	}
}

// TestLoadDirsRejectsEmpty guards the fixture loader's error path.
func TestLoadDirsRejectsEmpty(t *testing.T) {
	if _, err := LoadDirs(DirSpec{Dir: t.TempDir(), ImportPath: "x"}); err == nil {
		t.Fatal("LoadDirs on an empty dir must fail")
	}
}

// TestSourceImporterAvailable pins the framework's core assumption: the
// stdlib source importer can resolve std packages without export data.
func TestSourceImporterAvailable(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	if _, err := imp.Import("sort"); err != nil {
		t.Fatalf("source importer cannot load sort: %v", err)
	}
}
