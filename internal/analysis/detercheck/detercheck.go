// Package detercheck enforces the repo's determinism contract: the engine
// runs on a virtual clock, and its schedules, digests, traces and metrics
// snapshots are golden-pinned bit-for-bit. Three things silently break that
// — wall-clock reads, draws from the global rand source, and map iteration
// order leaking into ordered output — and all of them only surface later as
// flaky golden-test failures. This analyzer flags them at compile time.
//
// One source definition feeds every rule. A source is a time.Now call, a
// math/rand or math/rand/v2 package-level draw (the New* constructors build
// seeded sources and are fine, as are methods on a seeded *rand.Rand), or a
// `for range` over a map whose order can escape: the body is neither
// order-insensitive (map writes and deletes, integer counter updates) nor
// the collect-into-slices-then-sort idiom. Clock and rand calls in a file
// named faults.go are exempt: the fault injector owns the repo's one seeded
// source. A source under a reasoned //geompc:nolint is audited and does not
// taint its callers.
//
// The contract binds DeterministicPkgs, and is checked three ways:
//
//   - A source written inside a deterministic package is reported where it
//     is written (the zero-length chain).
//
//   - A call or reference from a deterministic package to a function
//     outside the set whose summary is tainted is reported at that edge,
//     with the call chain down to the root. Facts propagate bottom-up over
//     call-graph SCCs through static calls, interface dispatch, closures
//     and method values: handing out a tainted function value taints the
//     holder, since callbacks are how nondeterminism sneaks into the
//     engine.
//
//   - DESIGN.md §6i: every solver backend must be deterministic. A named
//     type implementing an interface named Backend declared in a package
//     whose base name is "solver" — the same types.Implements test the
//     registry's `var _ solver.Backend` assertions rely on — has its Solve
//     and SolveCached methods checked against the summary, and a tainted
//     one is reported at the method declaration, in whatever package the
//     backend lives.
package detercheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"geompc/internal/analysis"
)

const name = "detercheck"

// Analyzer is the detercheck instance registered with the driver.
var Analyzer = &analysis.Analyzer{
	Name:    name,
	Doc:     "flags wall-clock, global-rand and map-order nondeterminism in the deterministic packages, call chains carrying it in, and nondeterministic solver.Backend methods",
	Prepare: func(prog *analysis.Program) { facts(prog) },
	Run:     run,
}

// DeterministicPkgs are the packages whose output is golden-pinned: the
// virtual-clock spine (runtime, sched, comm, cholesky, solver, cg) plus the
// packages that render digests, traces and metrics (obs) and freeze and
// replay schedules (plan).
var DeterministicPkgs = map[string]bool{
	"runtime": true, "sched": true, "comm": true, "cholesky": true,
	"solver": true, "cg": true, "obs": true, "plan": true,
}

// contractMethods are the Backend methods bound by the determinism
// contract. Name() is exempt: it returns a static registry key.
var contractMethods = map[string]bool{"Solve": true, "SolveCached": true}

// source is one root site of nondeterminism.
type source struct {
	pos token.Pos
	// what names the root at the end of a call chain ("time.Now()").
	what string
	// msg is the finding when the site sits inside a deterministic package.
	msg string
}

// sources returns every function's own unaudited root sites in position
// order, computed once per program.
func sources(prog *analysis.Program) map[*analysis.Func][]source {
	return prog.Memo(name+"/sources", func() any {
		out := make(map[*analysis.Func][]source)
		for _, fn := range prog.Funcs() {
			if s := ownSources(prog, fn); len(s) > 0 {
				out[fn] = s
			}
		}
		return out
	}).(map[*analysis.Func][]source)
}

// ownSources finds the sources in fn's own body: escaping map ranges, and
// wall-clock or global-rand callees among its extern edges.
func ownSources(prog *analysis.Program, fn *analysis.Func) []source {
	var out []source
	add := func(pos token.Pos, what, msg string) {
		if !prog.SuppressedAt(fn.Pkg.Fset, pos, name) {
			out = append(out, source{pos: pos, what: what, msg: msg})
		}
	}
	analysis.InspectOwn(fn, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && mapRangeEscapes(fn.Pkg.Info, fn.Body(), rng) {
			add(rng.Pos(), "map iteration order", fmt.Sprintf("range over map %s: iteration order is nondeterministic and can leak into digests/schedules/traces — iterate sorted keys instead", types.ExprString(rng.X)))
		}
		return true
	})
	// faults.go owns the seeded injector.
	if filepath.Base(fn.Pkg.Fset.Position(fn.Pos).Filename) != "faults.go" {
		for _, e := range fn.Extern {
			if e.Recv != "" {
				continue // methods on a seeded *rand.Rand, time.Time, ...
			}
			switch {
			case e.PkgPath == "time" && e.Name == "Now":
				add(e.Pos, "time.Now()", "time.Now in a virtual-clock package: simulation time must come from the engine clock")
			case (e.PkgPath == "math/rand" || e.PkgPath == "math/rand/v2") && !strings.HasPrefix(e.Name, "New"):
				add(e.Pos, e.PkgPath+"."+e.Name+" (global source)",
					fmt.Sprintf("%s.%s uses the global rand source in a virtual-clock package: draw from a seeded *rand.Rand instead", e.PkgPath, e.Name))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// facts computes (or returns) the nondeterminism summary: for each
// function, the earliest reason it is not reproducible, or nil.
func facts(prog *analysis.Program) map[*analysis.Func]*analysis.Taint {
	srcs := sources(prog)
	return prog.Flow(analysis.FlowSpec{
		Key: name,
		Direct: func(fn *analysis.Func) *analysis.Taint {
			s := srcs[fn]
			if len(s) == 0 {
				return nil
			}
			return &analysis.Taint{What: s[0].what, Pos: s[0].pos, CallPos: s[0].pos}
		},
	})
}

func run(pass *analysis.Pass) {
	fs := facts(pass.Prog)
	if DeterministicPkgs[analysis.PkgBase(pass)] {
		srcs := sources(pass.Prog)
		seen := make(map[token.Pos]bool)
		for _, fn := range pass.Prog.Funcs() {
			if fn.Pkg.Path != pass.Pkg.Path() {
				continue
			}
			for _, s := range srcs[fn] {
				pass.Reportf(s.pos, "%s", s.msg)
			}
			checkEdges(pass, fn, fs, seen)
		}
	}
	checkBackends(pass, fs)
}

// checkEdges reports every call or reference from fn (in a deterministic
// package) that reaches a tainted function outside the set.
func checkEdges(pass *analysis.Pass, fn *analysis.Func, fs map[*analysis.Func]*analysis.Taint, seen map[token.Pos]bool) {
	for _, e := range fn.Edges {
		callee := e.Callee
		if seen[e.Pos] || DeterministicPkgs[path.Base(callee.Pkg.Path)] || fs[callee] == nil {
			continue // a callee inside the set reports closer to the root
		}
		seen[e.Pos] = true
		verb := "call to"
		if e.Kind == analysis.EdgeRef {
			verb = "reference to"
		}
		pass.Reportf(e.Pos, "%s %s carries nondeterminism into deterministic package %s (%s → %s) — hoist the source behind a seeded/sorted boundary or suppress the root with //geompc:nolint",
			verb, callee.Name, analysis.PkgBase(pass), callee.Name, pass.Prog.Chain(callee, fs))
	}
}

// backendInterfaces finds every interface named Backend declared in a
// package whose base is "solver", as seen from pkg's own type-check
// universe (each root re-checks its dependencies, so interface identity
// only holds within one universe).
func backendInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if path.Base(p.Path()) == "solver" {
			if obj, ok := p.Scope().Lookup("Backend").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					out = append(out, iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	return out
}

// checkBackends reports the tainted contract methods of every Backend
// implementation declared in the pass's package.
func checkBackends(pass *analysis.Pass, fs map[*analysis.Func]*analysis.Taint) {
	ifaces := backendInterfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return
	}
	scope := pass.Pkg.Scope()
	for _, tname := range scope.Names() {
		tn, ok := scope.Lookup(tname).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue // the contract binds implementations, not the interface
		}
		for _, iface := range ifaces {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				checkBackend(pass, named, fs)
				break
			}
		}
	}
}

// checkBackend verifies one implementation's contract methods.
func checkBackend(pass *analysis.Pass, named *types.Named, fs map[*analysis.Func]*analysis.Taint) {
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		m, ok := mset.At(i).Obj().(*types.Func)
		if !ok || !contractMethods[m.Name()] {
			continue
		}
		fn := pass.Prog.FuncOf(m)
		if fn == nil || fs[fn] == nil {
			continue // clean, or promoted from outside the loaded source
		}
		pass.Reportf(fn.Pos, "solver backend %s: %s is not deterministic (%s) — DESIGN.md §6i requires bit-reproducible Solve/SolveCached; seed the source, sort the iteration, or suppress the root with a reasoned //geompc:nolint",
			named.Obj().Name(), m.Name(), pass.Prog.Chain(fn, fs))
	}
}

// mapRangeEscapes reports whether rng iterates a map in an order that can
// escape: the body is neither provably order-insensitive nor the
// collect-into-slices-then-sort idiom. encl is the enclosing function body
// searched for the laundering sort call.
func mapRangeEscapes(info *types.Info, encl ast.Node, rng *ast.RangeStmt) bool {
	if !analysis.IsMap(info, rng.X) {
		return false
	}
	if orderInsensitiveBody(info, rng.Body.List) {
		return false
	}
	if targets, ok := appendOnlyBody(info, rng.Body.List); ok && sortedAfter(info, encl, rng.End(), targets) {
		return false
	}
	return true
}

// orderInsensitiveBody reports whether every statement commutes across
// iterations: map index writes and deletes (distinct keys per iteration),
// integer/bool counter updates, and continue. Floating-point accumulation is
// deliberately not on the list — float addition does not commute bit-exactly.
func orderInsensitiveBody(info *types.Info, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(info, s) {
				return false
			}
		case *ast.IncDecStmt:
			if !integerKind(analysis.BasicKind(info, s.X)) {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !analysis.IsBuiltinCall(info, call, "delete") {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func orderInsensitiveAssign(info *types.Info, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	if idx, isIndex := s.Lhs[0].(*ast.IndexExpr); isIndex {
		// m[k] = v / m[k] += v: one key per iteration, order-free as long as
		// the indexed container is a map (slice writes at computed indexes
		// would also be fine, but keep to the common case).
		return analysis.IsMap(info, idx.X)
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return integerKind(analysis.BasicKind(info, s.Lhs[0]))
	}
	return false
}

func integerKind(k types.BasicKind) bool {
	switch k {
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
		types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uint64, types.Uintptr:
		return true
	}
	return false
}

// appendOnlyBody reports whether the body only appends to local slices,
// returning the rendered append targets.
func appendOnlyBody(info *types.Info, stmts []ast.Stmt) (targets []string, ok bool) {
	for _, s := range stmts {
		as, isAssign := s.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
			return nil, false
		}
		call, isCall := as.Rhs[0].(*ast.CallExpr)
		if !isCall || !analysis.IsBuiltinCall(info, call, "append") || len(call.Args) == 0 {
			return nil, false
		}
		lhs := types.ExprString(as.Lhs[0])
		if lhs != types.ExprString(call.Args[0]) {
			return nil, false
		}
		targets = append(targets, lhs)
	}
	return targets, len(targets) > 0
}

// sortedAfter reports whether, after pos, the enclosing body calls into
// package sort or slices with one of the append targets among the
// arguments — the collect-then-sort idiom that launders map order away.
func sortedAfter(info *types.Info, encl ast.Node, pos token.Pos, targets []string) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		pkg, _, ok := analysis.CalleePkgFunc(info, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			a := types.ExprString(arg)
			for _, t := range targets {
				if a == t {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
