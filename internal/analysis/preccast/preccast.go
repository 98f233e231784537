// Package preccast enforces the precision-safety contract: the Higham–Mary
// rule (‖A_ij‖·NT/‖A‖ ≤ u_req/u_low) evaluated by the precision selector is
// the *only* decision point allowed to lower precision, and the audited
// conversion API — prec.Quantize and the internal/fp16 rounding kernels —
// is the only code allowed to implement the lowering. These are the software
// analogues of the paper's STC/TTC conversion points: every byte that moves
// at reduced precision passes through them, which is what makes the error
// accounting and the per-precision byte counters trustworthy.
//
// A lowering site is:
//
//   - a lossy numeric conversion: float32(x) from a float64 expression, or
//     uint16(x) from any float (the raw-FP16-bits smell). Constant
//     conversions are exact at compile time and exempt.
//
//   - literal half-precision bit-twiddling: shifting or masking
//     math.Float32bits results (>>16 BF16 truncation, mantissa masks for
//     TF32/FP16) — rounding must come from fp16.BF16Round/TF32Round/Round.
//
// Outside the audited packages (fp16, prec, linalg) the analyzer reports
// each site where it is written (the zero-length chain), and every call or
// reference to a function, also outside the set, whose summary reaches an
// unaudited site, with the call chain down to the root. Facts propagate bottom-up over call-graph
// SCCs through static calls, interface dispatch, closures and method
// values. An edge crossing into the audited set sanitizes: calling
// prec.Quantize is the correct way to lower precision and never taints the
// caller. A site under a reasoned //geompc:nolint is audited and does not
// taint its callers.
package preccast

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"geompc/internal/analysis"
)

const name = "preccast"

// Analyzer is the preccast instance registered with the driver.
var Analyzer = &analysis.Analyzer{
	Name:    name,
	Doc:     "flags lossy numeric down-casts, half-precision bit-twiddling and call chains reaching them outside the audited conversion API",
	Prepare: func(prog *analysis.Program) { facts(prog) },
	Run:     run,
}

// auditedPkgs implement the audited conversion API (fp16, prec) or are its
// quantizing consumers (the linalg mixed-precision kernels, whose packing
// loops are the STC conversion points themselves).
var auditedPkgs = map[string]bool{
	"fp16": true, "prec": true, "linalg": true,
}

// lowering classifies n as a lowering site, returning the root's name for
// call chains and the finding reported where it is written.
func lowering(info *types.Info, n ast.Node) (what, msg string, ok bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		target, isConv := analysis.IsConversion(info, n)
		if !isConv || len(n.Args) != 1 || analysis.IsConstant(info, n.Args[0]) {
			return "", "", false
		}
		tb, isBasic := target.Underlying().(*types.Basic)
		if !isBasic {
			return "", "", false
		}
		from := analysis.BasicKind(info, n.Args[0])
		switch {
		case tb.Kind() == types.Float32 && from == types.Float64:
			return "float64→float32 conversion", "lossy float64→float32 conversion outside the audited precision API — use prec.Quantize or an internal/fp16 rounding kernel (the STC/TTC conversion points)", true
		case tb.Kind() == types.Uint16 && (from == types.Float32 || from == types.Float64):
			return "float→uint16 conversion", "float→uint16 conversion outside internal/fp16 — raw FP16/BF16 bit patterns must come from fp16.FromFloat32", true
		}
	case *ast.BinaryExpr:
		if n.Op != token.SHR && n.Op != token.AND && n.Op != token.AND_NOT {
			return "", "", false
		}
		call, isCall := n.X.(*ast.CallExpr)
		if !isCall {
			return "", "", false
		}
		if pkg, fn, isPkgFunc := analysis.CalleePkgFunc(info, call); isPkgFunc && pkg == "math" && fn == "Float32bits" {
			return "math.Float32bits bit-twiddling", "literal half-precision bit-twiddling on math.Float32bits — use fp16.BF16Round/TF32Round/FromFloat32 so the conversion stays audited", true
		}
	}
	return "", "", false
}

func audited(fn *analysis.Func) bool { return auditedPkgs[path.Base(fn.Pkg.Path)] }

// facts computes (or returns) the lowering summary: for each function, the
// earliest unaudited lowering it can reach, or nil.
func facts(prog *analysis.Program) map[*analysis.Func]*analysis.Taint {
	return prog.Flow(analysis.FlowSpec{
		Key: name,
		Direct: func(fn *analysis.Func) *analysis.Taint {
			var taint *analysis.Taint
			analysis.InspectOwn(fn, func(n ast.Node) bool {
				if taint != nil {
					return false
				}
				if what, _, ok := lowering(fn.Pkg.Info, n); ok && !prog.SuppressedAt(fn.Pkg.Fset, n.Pos(), name) {
					taint = &analysis.Taint{What: what, Pos: n.Pos(), CallPos: n.Pos()}
				}
				return true
			})
			return taint
		},
		Block: func(fn *analysis.Func, e analysis.Edge) bool {
			// Crossing into the audited API is the sanctioned conversion
			// point; inside the audited set everything may flow.
			return !audited(fn) && audited(e.Callee)
		},
	})
}

func run(pass *analysis.Pass) {
	if auditedPkgs[analysis.PkgBase(pass)] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, msg, ok := lowering(pass.Info, n); ok {
				pass.Reportf(n.Pos(), "%s", msg)
			}
			return true
		})
	}
	fs := facts(pass.Prog)
	seen := make(map[token.Pos]bool)
	for _, fn := range pass.Prog.Funcs() {
		if fn.Pkg.Path != pass.Pkg.Path() {
			continue
		}
		for _, e := range fn.Edges {
			t := fs[e.Callee]
			if seen[e.Pos] || audited(e.Callee) || t == nil {
				continue // the sanctioned conversion API, or clean
			}
			seen[e.Pos] = true
			verb := "call to"
			if e.Kind == analysis.EdgeRef {
				verb = "reference to"
			}
			pass.Reportf(e.Pos, "%s %s reaches an unaudited %s (%s) — route the lowering through prec.Quantize or an internal/fp16 rounding kernel (the STC/TTC conversion points)",
				verb, e.Callee.Name, t.What, pass.Prog.Chain(e.Callee, fs))
		}
	}
}
