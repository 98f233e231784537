package analysis_test

import (
	"path/filepath"
	"testing"

	"geompc/internal/analysis"
)

const cgPath = "geompc/internal/fixture"

func loadCallgraph(t *testing.T) *analysis.Program {
	t.Helper()
	pkgs, err := analysis.LoadDirs(analysis.DirSpec{Dir: filepath.Join("testdata", "src", "callgraph"), ImportPath: cgPath})
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	return analysis.ProgramFromPackages(pkgs)
}

// edgeTargets collects the IDs fn's edges reach, keyed by edge kind.
func edgeTargets(fn *analysis.Func) (calls, refs map[string]bool) {
	calls, refs = map[string]bool{}, map[string]bool{}
	for _, e := range fn.Edges {
		if e.Kind == analysis.EdgeCall {
			calls[e.Callee.ID] = true
		} else {
			refs[e.Callee.ID] = true
		}
	}
	return calls, refs
}

// TestInterfaceDispatch: a call through an interface resolves to every
// in-program implementation with a matching method.
func TestInterfaceDispatch(t *testing.T) {
	prog := loadCallgraph(t)
	fn := prog.FuncByID(cgPath + ".Dispatch")
	if fn == nil {
		t.Fatal("Dispatch not in graph")
	}
	calls, _ := edgeTargets(fn)
	for _, want := range []string{cgPath + ".(fast).Run", cgPath + ".(slow).Run"} {
		if !calls[want] {
			t.Errorf("Dispatch missing dispatch edge to %s (have %v)", want, calls)
		}
	}
}

// TestClosures: literals become their own nodes, named in source order, and
// calling a named literal produces a call edge to its node.
func TestClosures(t *testing.T) {
	prog := loadCallgraph(t)
	fn := prog.FuncByID(cgPath + ".Closures")
	if fn == nil {
		t.Fatal("Closures not in graph")
	}
	calls, refs := edgeTargets(fn)
	if !calls[cgPath+".Closures$1"] {
		t.Errorf("call to named literal add not resolved: calls=%v", calls)
	}
	if !refs[cgPath+".Closures$1"] {
		t.Errorf("binding the named literal should also be a ref edge: refs=%v", refs)
	}
	if !calls[cgPath+".Closures$2"] {
		t.Errorf("immediately-invoked literal not a call edge: calls=%v", calls)
	}
	if refs[cgPath+".Closures$2"] {
		t.Error("immediately-invoked literal double-counted as a ref")
	}
	inner := prog.FuncByID(cgPath + ".Closures$2$1")
	if inner == nil {
		t.Fatal("nested literal has no node")
	}
	outer := prog.FuncByID(cgPath + ".Closures$2")
	oc, _ := edgeTargets(outer)
	if !oc[inner.ID] {
		t.Errorf("nested literal call not attributed to its parent literal: %v", oc)
	}
}

// TestMethodValue: binding s.Run is a ref edge (a may-call for value-flow
// analyzers), not a call edge.
func TestMethodValue(t *testing.T) {
	prog := loadCallgraph(t)
	fn := prog.FuncByID(cgPath + ".MethodValue")
	if fn == nil {
		t.Fatal("MethodValue not in graph")
	}
	calls, refs := edgeTargets(fn)
	target := cgPath + ".(slow).Run"
	if !refs[target] {
		t.Errorf("method value binding missing ref edge to %s: refs=%v", target, refs)
	}
	if calls[target] {
		t.Error("method value binding wrongly recorded as a call")
	}
}

// TestRecursiveSCC: mutual recursion collapses into one component, and the
// caller's component comes later in bottom-up order.
func TestRecursiveSCC(t *testing.T) {
	prog := loadCallgraph(t)
	comp := map[string]int{}
	for i, scc := range prog.SCCs() {
		for _, fn := range scc {
			comp[fn.ID] = i
		}
	}
	even, odd, top := comp[cgPath+".Even"], comp[cgPath+".Odd"], comp[cgPath+".Top"]
	if even != odd {
		t.Errorf("Even (scc %d) and Odd (scc %d) not in one component", even, odd)
	}
	if top <= even {
		t.Errorf("caller Top (scc %d) not after callee component (scc %d) in bottom-up order", top, even)
	}
}

// TestFlowSummary: a synthetic taint planted at one root propagates to
// every transitive caller — through the interface dispatch and the SCC —
// and Chain renders the path.
func TestFlowSummary(t *testing.T) {
	prog := loadCallgraph(t)
	root := prog.FuncByID(cgPath + ".(slow).Run")
	if root == nil {
		t.Fatal("root not in graph")
	}
	facts := prog.Flow(analysis.FlowSpec{
		Key: "test",
		Direct: func(fn *analysis.Func) *analysis.Taint {
			if fn == root {
				return &analysis.Taint{What: "planted", Pos: fn.Pos, CallPos: fn.Pos}
			}
			return nil
		},
	})
	if facts[root] == nil {
		t.Fatal("root lost its own taint")
	}
	dispatch := prog.FuncByID(cgPath + ".Dispatch")
	if facts[dispatch] == nil {
		t.Error("taint did not flow through interface dispatch")
	}
	mv := prog.FuncByID(cgPath + ".MethodValue")
	if facts[mv] == nil {
		t.Error("taint did not flow through the method-value ref edge")
	}
	if clean := prog.FuncByID(cgPath + ".Even"); facts[clean] != nil {
		t.Errorf("unrelated function tainted: %s", facts[clean].What)
	}
	chain := prog.Chain(dispatch, facts)
	if chain == "" {
		t.Error("empty chain for tainted function")
	}
}

// TestFlowCallsOnly: with CallsOnly set, ref edges do not propagate.
func TestFlowCallsOnly(t *testing.T) {
	prog := loadCallgraph(t)
	root := prog.FuncByID(cgPath + ".(slow).Run")
	facts := prog.Flow(analysis.FlowSpec{
		Key:       "test-callsonly",
		CallsOnly: true,
		Direct: func(fn *analysis.Func) *analysis.Taint {
			if fn == root {
				return &analysis.Taint{What: "planted", Pos: fn.Pos, CallPos: fn.Pos}
			}
			return nil
		},
	})
	if facts[prog.FuncByID(cgPath+".Dispatch")] == nil {
		t.Error("dispatch call edge should still propagate under CallsOnly")
	}
	if facts[prog.FuncByID(cgPath+".MethodValue")] != nil {
		t.Error("ref edge propagated despite CallsOnly")
	}
}

// TestFlowBlock: a Block hook stops propagation across the matched edge.
func TestFlowBlock(t *testing.T) {
	prog := loadCallgraph(t)
	root := prog.FuncByID(cgPath + ".Even")
	facts := prog.Flow(analysis.FlowSpec{
		Key: "test-block",
		Direct: func(fn *analysis.Func) *analysis.Taint {
			if fn == root {
				return &analysis.Taint{What: "planted", Pos: fn.Pos, CallPos: fn.Pos}
			}
			return nil
		},
		Block: func(fn *analysis.Func, e analysis.Edge) bool {
			return fn.ID == cgPath+".Top"
		},
	})
	if facts[prog.FuncByID(cgPath+".Odd")] == nil {
		t.Error("taint should circulate inside the SCC")
	}
	if facts[prog.FuncByID(cgPath+".Top")] != nil {
		t.Error("Block hook did not stop propagation into Top")
	}
}
