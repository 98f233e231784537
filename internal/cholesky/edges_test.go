package cholesky

import (
	"slices"
	"testing"

	"geompc/internal/runtime"
)

// inferEdges walks Algorithm 1's sequential insertion order over the
// graph's own task specs and infers each task's predecessors from its data
// accesses alone: read-after-write on every input, write-after-write and
// write-after-read on the output. It is the dependence inference a dynamic
// task-discovery runtime would perform, and so an oracle for the
// algebraically declared PTG edges.
func inferEdges(g *graph) (preds, succs [][]int) {
	preds = make([][]int, g.numTasks)
	succs = make([][]int, g.numTasks)
	lastWriter := map[runtime.DataID]int{}
	readers := map[runtime.DataID][]int{}
	var spec runtime.TaskSpec
	insert := func(id int) {
		g.Spec(id, &spec)
		deps := map[int]bool{}
		for _, in := range spec.Inputs {
			if w, ok := lastWriter[in.Data]; ok {
				deps[w] = true // RAW
			}
			readers[in.Data] = append(readers[in.Data], id)
		}
		out := spec.Output.Data
		if w, ok := lastWriter[out]; ok {
			deps[w] = true // WAW
		}
		for _, r := range readers[out] {
			if r != id {
				deps[r] = true // WAR
			}
		}
		lastWriter[out] = id
		readers[out] = nil
		for p := range deps {
			preds[id] = append(preds[id], p)
			succs[p] = append(succs[p], id)
		}
	}
	nt := g.nt
	for k := 0; k < nt; k++ {
		insert(g.potrf(k))
		for m := k + 1; m < nt; m++ {
			insert(g.trsm(m, k))
		}
		for m := k + 1; m < nt; m++ {
			insert(g.syrk(m, k))
		}
		for m := k + 2; m < nt; m++ {
			for n := k + 1; n < m; n++ {
				insert(g.gemm(m, n, k))
			}
		}
	}
	return preds, succs
}

// TestPTGEdgesMatchInferredEdges: the PTG's declared in-degrees and
// successor lists equal the edges inferred from its own data accesses in
// insertion order, under both communication strategies, across process
// grids and device counts.
func TestPTGEdgesMatchInferredEdges(t *testing.T) {
	for _, c := range []struct{ nt, ranks, devPerRank int }{{6, 1, 1}, {8, 2, 2}, {7, 4, 1}} {
		for _, strat := range []Strategy{Auto, ForceTTC} {
			g := buildTestGraph(t, c.nt, 1e-4, nil, strat, c.ranks, c.devPerRank)
			preds, succs := inferEdges(g)
			var buf []int
			for id := 0; id < g.numTasks; id++ {
				if got, want := g.NumPredecessors(id), len(preds[id]); got != want {
					t.Errorf("%+v/%v: %s declares %d predecessors, inference finds %d",
						c, strat, TaskName(c.nt, id), got, want)
				}
				buf = g.Successors(id, buf[:0])
				got, want := slices.Clone(buf), succs[id]
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("%+v/%v: %s successors %v, inference finds %v",
						c, strat, TaskName(c.nt, id), got, want)
				}
			}
		}
	}
}
