package runtime

import (
	"testing"

	"geompc/internal/hw"
	"geompc/internal/prec"
)

// FuzzValidate builds random DAGs from arbitrary byte strings and checks
// that (a) the decoded graph passes Validate — in-degrees match successor
// lists, every DataID lies below the bound and forward edges can never
// close a cycle — and (b) the engine executes it to completion under the
// invariant auditor without panicking.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x12, 0x34, 0x56})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x81, 0x7e})
	f.Add([]byte("read-write-interleave"))

	f.Fuzz(func(t *testing.T, data []byte) {
		const pool = 8 // distinct tiles
		// Each byte is one task. As an edge mask, bit k makes the task
		// depend on the task k+1 places before it (forward edges only). As
		// access flags, the low three bits pick the tile it reads, the next
		// three the tile it writes, bit 6 adds a second read and bit 7 a
		// receiver-side conversion. Capped to keep runs small.
		n := min(len(data), 64)
		g := newTestGraph(n)
		for d := 0; d < pool; d++ {
			g.initial[DataID(d)] = 0
		}
		for i := 0; i < n; i++ {
			b := data[i]
			for k := 0; k < 8 && k < i; k++ {
				if b&(1<<k) != 0 {
					g.edge(i-1-k, i)
				}
			}
			read := DataID(b & 7)
			in := []InputSpec{{Data: read, WireBytes: 4096, WirePrec: prec.FP32}}
			if b&0x80 != 0 {
				in[0].ConvertElems = 512
				in[0].ConvFrom, in[0].ConvTo = prec.FP16, prec.FP32
			}
			if b&0x40 != 0 {
				in = append(in, InputSpec{Data: (read + 1) % pool, WireBytes: 2048, WirePrec: prec.FP16})
			}
			g.specs[i] = TaskSpec{
				Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1e6,
				Inputs: in,
				Output: OutputSpec{Data: DataID((b >> 3) & 7), Bytes: 8192, Prec: prec.FP64},
			}
		}

		if err := Validate(g); err != nil {
			t.Fatalf("decoded graph fails validation: %v", err)
		}
		// In-degree / successor round trip, beyond what Validate reports.
		var buf []int
		for id := 0; id < g.NumTasks(); id++ {
			buf = g.Successors(id, buf[:0])
			for _, s := range buf {
				if s <= id {
					t.Fatalf("task %d lists non-forward successor %d", id, s)
				}
			}
		}
		if n == 0 {
			return
		}
		plat, err := NewPlatform(hw.SummitNode, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(plat, g)
		eng.Audit = true
		st, err := eng.Run()
		if err != nil {
			t.Fatalf("audited run failed: %v", err)
		}
		if st.Tasks != n {
			t.Fatalf("executed %d of %d tasks", st.Tasks, n)
		}
	})
}
