package runtime

import "fmt"

// Host-availability index: the virtual time each (rank, datum) pair's host
// copy becomes readable, held in one flat table with a Graph.DataIDBound()-
// long segment per rank, addressed as rank*hostBound + data.

// hostAbsent marks a (rank, data) slot of the host index with no host copy;
// availability times are always ≥ 0.
const hostAbsent = -1.0

// maxIndexSlots caps each dense data table (host index slots across ranks,
// residency slots across devices). A graph whose bound exceeds it is
// rejected at Run before anything is allocated.
const maxIndexSlots = 1 << 28

// checkDataBound refuses, before anything is allocated, a DataIDBound whose
// dense tables — one bound-long segment per rank in the host index, per
// device in the residency index — would exceed maxIndexSlots.
func checkDataBound(bound int64, p *Platform) error {
	if segs := int64(max(p.Ranks, p.NumDevices())); bound < 0 || bound > maxIndexSlots/segs {
		return &GraphError{Task: -1, Msg: fmt.Sprintf(
			"DataIDBound %d: %d data-table segments of that length exceed the %d-slot cap", bound, segs, maxIndexSlots)}
	}
	return nil
}

// dataInBound reports whether every datum spec reads or writes has a slot
// in the dense tables (a negative output id means "no output").
//
//geompc:hot
func (e *Engine) dataInBound(spec *TaskSpec) bool {
	for i := range spec.Inputs {
		if d := spec.Inputs[i].Data; d < 0 || int(d) >= e.hostBound {
			return false
		}
	}
	return int(spec.Output.Data) < e.hostBound
}

// specError describes why enqueueReady refused spec: an invalid device or
// a datum outside the graph's DataIDBound.
func (e *Engine) specError(spec *TaskSpec) error {
	if spec.Device < 0 || spec.Device >= len(e.devices) {
		return &GraphError{Task: spec.ID, Msg: fmt.Sprintf("assigned to invalid device %d", spec.Device)}
	}
	return &GraphError{Task: spec.ID, Msg: fmt.Sprintf("touches a datum outside [0,%d)", e.hostBound)}
}

//geompc:hot
func (e *Engine) setHostAvail(rank int, d DataID, at float64) {
	e.hostDense[rank*e.hostBound+int(d)] = at
}

//geompc:hot
func (e *Engine) lookupHostAvail(rank int, d DataID) (float64, bool) {
	v := e.hostDense[rank*e.hostBound+int(d)]
	return v, v != hostAbsent
}
