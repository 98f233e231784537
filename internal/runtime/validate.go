package runtime

import "fmt"

// Validate checks a Graph's structural consistency without executing it:
// every DataID named by InitialData or by a task's inputs and output must
// lie in [0, DataIDBound()) (a negative output id means "no output"), every
// task's declared in-degree must equal the number of times it appears in
// other tasks' successor lists, successor ids must be in range, and the
// graph must be acyclic (verified by a Kahn peel). It is O(V+E) time and
// O(V) memory — intended for tests and for debugging new Graph
// implementations, not for the hot path.
func Validate(g Graph) error {
	n := g.NumTasks()
	bound := g.DataIDBound()
	var dataErr error
	g.InitialData(func(d DataID, rank int) {
		if dataErr == nil && (d < 0 || int64(d) >= bound) {
			dataErr = fmt.Errorf("runtime: initial datum %d (rank %d) outside [0,%d)", d, rank, bound)
		}
	})
	if dataErr != nil {
		return dataErr
	}
	var spec TaskSpec
	for id := 0; id < n; id++ {
		g.Spec(id, &spec)
		for _, in := range spec.Inputs {
			if in.Data < 0 || int64(in.Data) >= bound {
				return fmt.Errorf("runtime: task %d reads datum %d outside [0,%d)", id, in.Data, bound)
			}
		}
		if int64(spec.Output.Data) >= bound {
			return fmt.Errorf("runtime: task %d writes datum %d outside [0,%d)", id, spec.Output.Data, bound)
		}
	}
	indeg := make([]int32, n)
	var buf []int
	edges := 0
	for id := 0; id < n; id++ {
		buf = g.Successors(id, buf[:0])
		for _, s := range buf {
			if s < 0 || s >= n {
				return fmt.Errorf("runtime: task %d lists successor %d outside [0,%d)", id, s, n)
			}
			if s == id {
				return fmt.Errorf("runtime: task %d lists itself as successor", id)
			}
			indeg[s]++
			edges++
		}
	}
	for id := 0; id < n; id++ {
		if want := g.NumPredecessors(id); int(indeg[id]) != want {
			return fmt.Errorf("runtime: task %d has %d incoming edges but declares %d predecessors",
				id, indeg[id], want)
		}
	}
	// Kahn peel for acyclicity.
	queue := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		buf = g.Successors(id, buf[:0])
		for _, s := range buf {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("runtime: dependency cycle involving %d of %d tasks", n-seen, n)
	}
	return nil
}
