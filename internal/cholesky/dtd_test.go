package cholesky

import (
	"testing"

	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// buildNumericConfig assembles a shared numeric configuration for the
// PTG-vs-DTD equivalence tests.
func buildNumericConfig(t *testing.T, nt int, ranks, devPerRank int) (Config, Config) {
	t.Helper()
	ts := 16
	n := nt * ts
	rng := stats.NewRNG(21, 0)
	locs := geo.GenerateLocations(n, 2, rng)
	kfn := geo.SqExp{Dimension: 2}
	theta := []float64{1, 0.05}
	pg, qg := tile.SquarestGrid(ranks)
	d, err := tile.NewDesc(n, ts, pg, qg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Config {
		mat := tile.NewMatrix(d, false)
		mat.Fill(func(tl *tile.Tile, r0, c0 int) {
			geo.CovTile(locs, r0, c0, tl.M, tl.N, kfn, theta, 1e-8, tl.Data, tl.N)
		})
		maps := precmap.New(precmap.FromMatrix(mat, 1e-6, prec.CholeskySet), 1e-6)
		mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
		plat, err := runtime.NewPlatform(hw.SummitNode, ranks, devPerRank)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Desc: d, Maps: maps, Platform: plat, Matrix: mat, Strategy: Auto}
	}
	return mk(), mk()
}

func TestDTDMatchesPTGNumeric(t *testing.T) {
	cfgPTG, cfgDTD := buildNumericConfig(t, 6, 1, 1)
	ptg, err := Run(cfgPTG)
	if err != nil {
		t.Fatal(err)
	}
	dtd, err := RunDTD(cfgDTD)
	if err != nil {
		t.Fatal(err)
	}
	if ptg.Err != nil || dtd.Err != nil {
		t.Fatal(ptg.Err, dtd.Err)
	}
	a := cfgPTG.Matrix.LowerToDense()
	b := cfgDTD.Matrix.LowerToDense()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("factor differs at %d: PTG %g vs DTD %g", i, a[i], b[i])
		}
	}
	if ptg.Stats.Tasks != dtd.Stats.Tasks {
		t.Errorf("task counts differ: %d vs %d", ptg.Stats.Tasks, dtd.Stats.Tasks)
	}
	if ptg.Stats.TotalFlops != dtd.Stats.TotalFlops {
		t.Errorf("flops differ: %g vs %g", ptg.Stats.TotalFlops, dtd.Stats.TotalFlops)
	}
}

func TestDTDMatchesPTGSchedule(t *testing.T) {
	// With identical specs, priorities and (semantically) identical edges,
	// the two front-ends must yield identical virtual statistics.
	cfgPTG, cfgDTD := buildNumericConfig(t, 8, 2, 2)
	ptg, err := Run(cfgPTG)
	if err != nil {
		t.Fatal(err)
	}
	dtd, err := RunDTD(cfgDTD)
	if err != nil {
		t.Fatal(err)
	}
	if ptg.Stats.Makespan != dtd.Stats.Makespan {
		t.Errorf("makespans differ: PTG %.9g vs DTD %.9g", ptg.Stats.Makespan, dtd.Stats.Makespan)
	}
	if ptg.Stats.BytesH2D != dtd.Stats.BytesH2D || ptg.Stats.BytesNet != dtd.Stats.BytesNet {
		t.Errorf("data motion differs: H2D %d/%d, net %d/%d",
			ptg.Stats.BytesH2D, dtd.Stats.BytesH2D, ptg.Stats.BytesNet, dtd.Stats.BytesNet)
	}
	if ptg.Stats.Energy != dtd.Stats.Energy {
		t.Errorf("energy differs: %g vs %g", ptg.Stats.Energy, dtd.Stats.Energy)
	}
}

func TestDTDPhantom(t *testing.T) {
	nt := 12
	d, _ := tile.NewDesc(nt*256, 256, 1, 1)
	maps := precmap.New(precmap.Uniform(nt, prec.FP16), 1e-2)
	plat, _ := runtime.NewPlatform(hw.SummitNode, 1, 1)
	cfg := Config{Desc: d, Maps: maps, Platform: plat}
	ptg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dtd, err := RunDTD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ptg.Stats.Makespan != dtd.Stats.Makespan {
		t.Errorf("phantom makespans differ: %g vs %g", ptg.Stats.Makespan, dtd.Stats.Makespan)
	}
}

func TestDTDGraphInference(t *testing.T) {
	// Direct DTD builder semantics: RAW, WAR, WAW edges.
	g := runtime.NewDTDGraph()
	g.Data(1, 0)
	spec := func() runtime.TaskSpec {
		return runtime.TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64, Flops: 1}
	}
	w1, _ := g.Insert(spec(), runtime.Access{Data: 1, Mode: runtime.Write, WireBytes: 8})
	r1, _ := g.Insert(spec(), runtime.Access{Data: 1, Mode: runtime.Read, WireBytes: 8})
	r2, _ := g.Insert(spec(), runtime.Access{Data: 1, Mode: runtime.Read, WireBytes: 8})
	w2, _ := g.Insert(spec(), runtime.Access{Data: 1, Mode: runtime.Write, WireBytes: 8})

	if g.NumPredecessors(w1) != 0 {
		t.Error("first writer must have no deps")
	}
	if g.NumPredecessors(r1) != 1 || g.NumPredecessors(r2) != 1 {
		t.Error("readers must depend only on the writer")
	}
	// Second writer: WAW on w1 + WAR on both readers.
	if g.NumPredecessors(w2) != 3 {
		t.Errorf("second writer has %d deps, want 3 (WAW + 2×WAR)", g.NumPredecessors(w2))
	}
	var buf []int
	succs := g.Successors(w1, buf)
	if len(succs) != 3 { // r1, r2, w2
		t.Errorf("w1 has %d successors, want 3", len(succs))
	}
}

func TestDTDDoubleWriteRejected(t *testing.T) {
	g := runtime.NewDTDGraph()
	_, err := g.Insert(runtime.TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64},
		runtime.Access{Data: 1, Mode: runtime.Write, WireBytes: 8},
		runtime.Access{Data: 2, Mode: runtime.Write, WireBytes: 8})
	if err == nil {
		t.Error("two Write accesses accepted")
	}
}

func TestDTDSealedAfterSeal(t *testing.T) {
	g := runtime.NewDTDGraph()
	if _, err := g.Insert(runtime.TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64},
		runtime.Access{Data: 1, Mode: runtime.Write, WireBytes: 8}); err != nil {
		t.Fatal(err)
	}
	// Spec is a pure read; it must not latch the seal.
	var s runtime.TaskSpec
	g.Spec(0, &s)
	if _, err := g.Insert(runtime.TaskSpec{Kind: hw.KindGemm, Device: 0, Prec: prec.FP64},
		runtime.Access{Data: 2, Mode: runtime.Write, WireBytes: 8}); err != nil {
		t.Errorf("insertion after a Spec read was rejected: %v", err)
	}
	// The engine seals at Run start; after that, insertion fails.
	g.Seal()
	if _, err := g.Insert(runtime.TaskSpec{}); err == nil {
		t.Error("insertion after execution started was accepted")
	}
}
