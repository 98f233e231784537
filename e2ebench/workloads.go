package main

import (
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"sort"
	"strings"

	"geompc/internal/bench"
	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/hw"
	"geompc/internal/mle"
	"geompc/internal/optimize"
	"geompc/internal/plan"
	"geompc/internal/precmap"
	"geompc/internal/runtime"
	"geompc/internal/stats"
	"geompc/internal/sweep"
	"geompc/internal/tile"
)

// workload is one pipeline of the benchmark.
type workload interface {
	// setup builds the inputs from the seed and warms up.
	setup(seed uint64) error
	// iterate runs iteration i through the public driver.
	iterate(i int) (iterOut, error)
	// verify checks the loop's outputs, after the timed loop.
	verify(ls *loopStats, refs *refStore, seed uint64, res *result)
	// summary derives the non-timing end-to-end figures of a loop.
	summary(ls *loopStats) workloadSummary
	// evalUnit says what evals_per_s counts.
	evalUnit() string
	// refKey names the reference entry for an input set.
	refKey(seed uint64, key int) string
	// keys is the number of distinct input sets iterations cycle through.
	keys() int
	// layers runs the traced decomposition and fills the per-layer counts.
	layers(tr *tracer, lc *layerCounts, res *result) error
}

var workloads = map[string]func() workload{
	"mc-sqexp":          func() workload { return &mcSqExp{} },
	"fit-matern-cached": func() workload { return &fitMatern{} },
	"phantom-conv":      func() workload { return &phantomConv{} },
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// iterOut is what one iteration produced.
type iterOut struct {
	key            int      // input set the iteration ran
	digests        []uint64 // output digests compared with references
	ops, failedOps int      // attempted and failed operations
	evals          int      // likelihood evaluations or simulated factorizations
	rejected       int      // evaluations whose Σ(θ) was not SPD
	sim            simTotals
	relErr         []float64 // |θ̂−θ|/θ at the lowest-precision level
	mc             []mle.MCResult
	fit            *mle.FitResult
	planStats      plan.Stats
	rows           []bench.ConvRow
	sweep          sweep.Summary
}

// simTotals are virtual-time and virtual-byte figures from the simulator.
type simTotals struct {
	makespan, energyJ float64
	h2d, net          int64
	bytesKnown        bool
}

type workloadSummary struct {
	isMLE       bool
	thetaRelErr float64
	stcSaving   float64
	simTasks    int
	sim         simTotals
}

// nproc is the worker budget of every fan-out: GOMAXPROCS, which the
// benchmark leaves at its default of the CPU count.
func nproc() int { return goruntime.GOMAXPROCS(0) }

// digester hashes output values with FNV-1a.
type digester struct{ b []byte }

func (d *digester) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.b = append(d.b, byte(v>>(8*i)))
	}
}
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) str(s string)  { d.b = append(append(d.b, s...), 0) }
func (d *digester) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.b)
	return h.Sum64()
}

func (d *digester) runStats(s mle.RunStats) {
	d.int(s.Evaluations)
	d.int(s.Rejected)
	d.f64(s.Time)
	d.f64(s.Energy)
	d.f64(s.Flops)
	d.u64(uint64(s.BytesH2D))
	d.u64(uint64(s.BytesD2H))
	d.u64(uint64(s.BytesNet))
}

// checkRepeatsAndRefs compares every iteration's digests with the first
// iteration on the same input set and with the stored references.
func checkRepeatsAndRefs(w workload, ls *loopStats, refs *refStore, name string, seed uint64, res *result) {
	first := map[int][]uint64{}
	for i, o := range ls.outs {
		if o.digests == nil {
			continue // the iteration errored; already counted
		}
		bad := false
		if f, ok := first[o.key]; ok {
			if !equalDigests(f, o.digests) {
				res.fail("iteration %d: outputs differ from the first run of input set %d", i, o.key)
				bad = true
			}
		} else {
			first[o.key] = o.digests
			key := w.refKey(seed, o.key)
			if want, ok := refs.lookup(name, key); ok {
				if !equalDigests(want, o.digests) {
					res.fail("iteration %d: output digests %s differ from reference %s (%s)",
						i, hexDigests(o.digests), hexDigests(want), key)
					bad = true
				}
			}
		}
		if bad {
			ls.outs[i].failedOps = ls.outs[i].ops
		}
	}
	missing := 0
	for k := range first {
		if _, ok := refs.lookup(name, w.refKey(seed, k)); !ok {
			missing++
		}
	}
	if missing > 0 {
		fmt.Printf("note: no stored reference for %d input set(s) of seed %d; outputs checked for repeatability and invariants only\n", missing, seed)
	}
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// mc-sqexp: mle.MonteCarlo on Fig 5's 2D-sqexp-weak panel.

// mcConfig is the study as `accuracy -case "2D-sqexp weak" -levels
// 0,1e-9,1e-4 -replicas 8 -n 256 -maxevals 100` runs it, without a plan
// cache. The evaluation cap makes every fit spend nearly the same number
// of evaluations, so the work per iteration does not depend on the seed.
func mcConfig(seed uint64) mle.MCConfig {
	return mle.MCConfig{
		Replicas:  8,
		N:         256,
		Dim:       2,
		Kernel:    geo.SqExp{Dimension: 2},
		TrueTheta: []float64{1, 0.03},
		UReqs:     []float64{0, 1e-9, 1e-4},
		Nugget:    1e-7,
		TileSize:  64,
		Seed:      seed,
		MaxEvals:  100,
	}
}

type mcSqExp struct {
	cfg mle.MCConfig
	// probs holds replica 0's dataset at each accuracy level, built the way
	// mle.MonteCarlo builds it; warm-up and the traced decomposition use it.
	probs []*mle.Problem
}

func (w *mcSqExp) setup(seed uint64) error {
	w.cfg = mcConfig(seed)
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed, 0)
	locs := geo.GenerateLocations(w.cfg.N, w.cfg.Dim, rng)
	z, err := geo.SimulateField(locs, w.cfg.Kernel, w.cfg.TrueTheta, w.cfg.Nugget, rng)
	if err != nil {
		return err
	}
	w.probs = nil
	for _, u := range w.cfg.UReqs {
		p := &mle.Problem{Locs: locs, Z: z, Kernel: w.cfg.Kernel, Nugget: w.cfg.Nugget,
			TileSize: w.cfg.TileSize, UReq: u, Platform: plat}
		if _, err := p.NegLogLik(w.cfg.TrueTheta, nil); err != nil {
			return err
		}
		w.probs = append(w.probs, p)
	}
	return nil
}

func (w *mcSqExp) iterate(int) (iterOut, error) {
	out := iterOut{ops: w.cfg.Replicas * len(w.cfg.UReqs)}
	res, err := mle.MonteCarlo(w.cfg)
	if err != nil {
		out.failedOps = out.ops
		return out, err
	}
	out.mc = res
	var d digester
	for _, r := range res {
		d.f64(r.UReq)
		d.int(r.Failed)
		for _, est := range r.Estimates {
			for _, v := range est {
				d.f64(v)
			}
		}
		d.runStats(r.Stats)
		out.failedOps += r.Failed
		out.evals += r.Stats.Evaluations
		out.rejected += r.Stats.Rejected
		out.sim.makespan += r.Stats.Time
		out.sim.energyJ += r.Stats.Energy
	}
	out.digests = []uint64{d.sum()}
	last := res[len(res)-1]
	for i, est := range last.Estimates {
		for _, v := range est {
			out.relErr = append(out.relErr, math.Abs(v-w.cfg.TrueTheta[i])/w.cfg.TrueTheta[i])
		}
	}
	return out, nil
}

func (w *mcSqExp) verify(ls *loopStats, refs *refStore, seed uint64, res *result) {
	checkRepeatsAndRefs(w, ls, refs, "mc-sqexp", seed, res)
	for i, o := range ls.outs {
		for _, r := range o.mc {
			if r.Failed > 0 {
				res.fail("iteration %d: %d replicas failed at u_req=%g", i, r.Failed, r.UReq)
			}
			if r.Stats.Evaluations == 0 {
				res.fail("iteration %d: no evaluations at u_req=%g", i, r.UReq)
			}
			for p, est := range r.Estimates {
				for _, v := range est {
					if math.IsNaN(v) || v < 0.01 || v > 2 {
						res.fail("iteration %d: estimate %d = %g outside the box [0.01, 2]", i, p, v)
						ls.outs[i].failedOps = ls.outs[i].ops
					}
				}
			}
		}
	}
}

func (w *mcSqExp) summary(ls *loopStats) workloadSummary {
	o := ls.outs[0]
	return workloadSummary{isMLE: true, thetaRelErr: median(o.relErr), sim: o.sim}
}

func (w *mcSqExp) evalUnit() string { return "likelihood evaluations per host second" }
func (w *mcSqExp) keys() int        { return 1 }
func (w *mcSqExp) refKey(seed uint64, key int) string {
	return fmt.Sprintf("seed=%d", seed)
}

// ---------------------------------------------------------------------------
// fit-matern-cached: one plan-cached mle.Fit of a 2D Matérn field.

const (
	fitN        = 512
	fitTS       = 64
	fitUReq     = 1e-4
	fitMaxEvals = 60
	// fitDatasets is how many seeded fields the iterations cycle through:
	// the median over several fields is steadier across seeds than one
	// field's fit, and each field repeats so outputs can be compared.
	fitDatasets = 4
)

var (
	fitKernel = geo.Matern{Dimension: 2}
	fitTheta  = []float64{1, 0.1, 0.8}
)

type fitMatern struct {
	seed uint64
	plat *runtime.Platform
	data []fitData
}

type fitData struct {
	locs []geo.Point
	z    []float64
}

func (w *fitMatern) setup(seed uint64) error {
	plat, err := runtime.NewPlatform(hw.SummitNode, 1, 1)
	if err != nil {
		return err
	}
	w.seed = seed
	w.plat = plat
	w.data = nil
	for k := 0; k < fitDatasets; k++ {
		rng := stats.NewRNG(seed, uint64(k))
		locs := geo.GenerateLocations(fitN, 2, rng)
		z, err := geo.SimulateField(locs, fitKernel, fitTheta, 0, rng)
		if err != nil {
			return err
		}
		w.data = append(w.data, fitData{locs: locs, z: z})
	}
	_, err = w.problem(0, nil).NegLogLik(fitTheta, nil)
	return err
}

// problem is the user's Problem for dataset k; cache may be nil.
func (w *fitMatern) problem(k int, cache *plan.Cache) *mle.Problem {
	d := w.data[k]
	return &mle.Problem{
		Locs: d.locs, Z: d.z, Kernel: fitKernel, TileSize: fitTS,
		UReq: fitUReq, Platform: w.plat, PlanCache: cache,
	}
}

func (w *fitMatern) iterate(i int) (iterOut, error) {
	k := i % fitDatasets
	out := iterOut{key: k, ops: 1}
	cache := plan.NewCache(nil)
	p := w.problem(k, cache)
	_, lo, hi := mle.DefaultBounds(len(fitTheta))
	fit, err := mle.Fit(p, fitTheta, lo, hi, optimize.Options{Tol: 1e-9, MaxEvals: fitMaxEvals})
	if err != nil {
		out.failedOps = 1
		return out, err
	}
	out.fit = fit
	out.planStats = cache.Stats()
	out.evals = fit.Stats.Evaluations
	out.rejected = fit.Stats.Rejected
	out.sim = simTotals{makespan: fit.Stats.Time, energyJ: fit.Stats.Energy,
		h2d: fit.Stats.BytesH2D, net: fit.Stats.BytesNet, bytesKnown: true}
	for j, v := range fit.Theta {
		out.relErr = append(out.relErr, math.Abs(v-fitTheta[j])/fitTheta[j])
	}
	var d digester
	for _, v := range fit.Theta {
		d.f64(v)
	}
	d.f64(fit.NegLogLik)
	d.runStats(fit.Stats)
	ps := out.planStats
	d.u64(uint64(ps.Hits))
	d.u64(uint64(ps.Misses))
	d.u64(uint64(ps.Invalidations))
	d.u64(uint64(ps.TasksInvalidated))
	out.digests = []uint64{d.sum()}
	return out, nil
}

func (w *fitMatern) verify(ls *loopStats, refs *refStore, seed uint64, res *result) {
	checkRepeatsAndRefs(w, ls, refs, "fit-matern-cached", seed, res)
	for _, o := range ls.firstPerKey() {
		k, fit := o.key, o.fit
		// A plan replay must give the live run's bits: the optimum's value,
		// re-evaluated without a cache, equals what the cached fit reported.
		v, err := w.problem(k, nil).NegLogLik(fit.Theta, nil)
		if err != nil {
			res.fail("dataset %d: uncached re-evaluation: %v", k, err)
			continue
		}
		if math.Float64bits(v) != math.Float64bits(fit.NegLogLik) || math.IsInf(v, 0) {
			res.fail("dataset %d: uncached −ℓ(θ̂) = %v, cached fit reported %v", k, v, fit.NegLogLik)
			markFailed(ls, k)
		}
	}
}

func markFailed(ls *loopStats, key int) {
	for i := range ls.outs {
		if ls.outs[i].key == key {
			ls.outs[i].failedOps = ls.outs[i].ops
		}
	}
}

func (w *fitMatern) summary(ls *loopStats) workloadSummary {
	var rel []float64
	var sim simTotals
	for _, o := range ls.firstPerKey() {
		rel = append(rel, o.relErr...)
		if o.key == 0 {
			sim = o.sim
		}
	}
	return workloadSummary{isMLE: true, thetaRelErr: median(rel), sim: sim}
}

func (w *fitMatern) evalUnit() string { return "likelihood evaluations per host second" }
func (w *fitMatern) keys() int        { return fitDatasets }
func (w *fitMatern) refKey(seed uint64, key int) string {
	return fmt.Sprintf("seed=%d/dataset=%d", seed, key)
}

// ---------------------------------------------------------------------------
// phantom-conv: the Fig 8/11 STC-vs-TTC grid in phantom mode.

// The grid uses the banded precision maps of bench.ConvConfigs, so it does
// not depend on the seed.
const (
	convRanks = 4
	convGPUs  = 6
	convN     = 131072
	convTS    = 2048
)

type phantomConv struct {
	// direct holds one cholesky.Run per grid point, for per-device checks.
	direct []*cholesky.Result
}

func (w *phantomConv) sweep(workers int, sum *sweep.Summary) ([]bench.ConvRow, error) {
	so := bench.SchedOpts{SweepOpts: bench.SweepOpts{Workers: workers, Summary: sum}}
	return bench.ConvSweepOpts(hw.SummitNode, convRanks, convGPUs, []int{convN}, convTS, "", so)
}

func (w *phantomConv) setup(uint64) error {
	_, err := w.sweep(nproc(), nil)
	return err
}

func (w *phantomConv) iterate(int) (iterOut, error) {
	var out iterOut
	rows, err := w.sweep(nproc(), &out.sweep)
	out.ops = len(rows)
	if err != nil {
		out.ops = max(out.ops, 1)
		out.failedOps = out.ops
		return out, err
	}
	out.rows = rows
	out.evals = len(rows)
	for _, r := range rows {
		out.digests = append(out.digests, rowDigest(r))
		out.sim.makespan += r.Time
		out.sim.h2d += r.BytesH2D
		out.sim.net += r.BytesNet
	}
	out.sim.bytesKnown = true
	return out, nil
}

func rowDigest(r bench.ConvRow) uint64 {
	var d digester
	d.str(r.Config)
	d.str(r.Strategy)
	d.int(r.N)
	d.u64(r.Digest)
	d.f64(r.Time)
	d.u64(uint64(r.BytesH2D))
	d.u64(uint64(r.BytesNet))
	return d.sum()
}

// convPointConfig rebuilds a grid point's configuration the way the sweep
// does.
func convPointConfig(plat *runtime.Platform, row bench.ConvRow) (cholesky.Config, error) {
	var cfg bench.ConvConfig
	for _, c := range bench.ConvConfigs() {
		if c.Name == row.Config {
			cfg = c
		}
	}
	pg, qg := tile.SquarestGrid(plat.Ranks)
	desc, err := tile.NewDesc(row.N, convTS, pg, qg)
	if err != nil {
		return cholesky.Config{}, err
	}
	strat := cholesky.Auto
	if row.Strategy != cholesky.Auto.String() {
		strat = cholesky.ForceTTC
	}
	return cholesky.Config{
		Desc: desc, Maps: precmap.New(cfg.KernelMap(desc.NT), 1e-2),
		Platform: plat, Strategy: strat,
	}, nil
}

// runDirect runs every grid point through cholesky.Run, which exposes the
// per-device statistics the sweep rows do not carry.
func (w *phantomConv) runDirect(rows []bench.ConvRow, each func(cfg cholesky.Config) (*cholesky.Result, error)) error {
	plat, err := runtime.NewPlatform(hw.SummitNode, convRanks, convGPUs)
	if err != nil {
		return err
	}
	w.direct = w.direct[:0]
	for _, r := range rows {
		cfg, err := convPointConfig(plat, r)
		if err != nil {
			return err
		}
		res, err := each(cfg)
		if err != nil {
			return err
		}
		w.direct = append(w.direct, res)
	}
	return nil
}

func (w *phantomConv) verify(ls *loopStats, refs *refStore, seed uint64, res *result) {
	checkRepeatsAndRefs(w, ls, refs, "phantom-conv", seed, res)
	var rows []bench.ConvRow
	for _, o := range ls.outs {
		if o.rows != nil {
			rows = o.rows
			break
		}
	}
	if rows == nil {
		return
	}
	err := w.runDirect(rows, cholesky.Run)
	if err != nil {
		res.fail("direct runs: %v", err)
		return
	}
	w.checkDirect(rows, res)
}

// checkDirect compares the direct runs with the sweep rows and checks the
// paper's claim per configuration and per device: sender-side conversion
// moves no more host-to-device or network bytes than receiver-side.
func (w *phantomConv) checkDirect(rows []bench.ConvRow, res *result) {
	for i, r := range rows {
		if d := w.direct[i]; d.Digest() != r.Digest || d.Stats.BytesH2D != r.BytesH2D || d.Stats.BytesNet != r.BytesNet {
			res.fail("%s %s: direct run digest %x differs from sweep row %x", r.Config, r.Strategy, d.Digest(), r.Digest)
		}
	}
	for _, p := range stcPairs(rows) {
		name := rows[p[0]].Config
		stc, ttc := w.direct[p[0]].Stats, w.direct[p[1]].Stats
		if stc.BytesNet > ttc.BytesNet {
			res.fail("%s: STC moves %d network bytes, TTC %d", name, stc.BytesNet, ttc.BytesNet)
		}
		if stc.BytesH2D > ttc.BytesH2D {
			res.fail("%s: STC moves %d H2D bytes, TTC %d", name, stc.BytesH2D, ttc.BytesH2D)
		}
		for dev := range stc.Devices {
			if stc.Devices[dev].BytesH2D > ttc.Devices[dev].BytesH2D {
				res.fail("%s device %d: STC moves %d H2D bytes, TTC %d",
					name, dev, stc.Devices[dev].BytesH2D, ttc.Devices[dev].BytesH2D)
			}
		}
	}
}

// stcPairs returns the row indices (STC, TTC) of every configuration and
// size that ran both strategies.
func stcPairs(rows []bench.ConvRow) [][2]int {
	var pairs [][2]int
	for i, r := range rows {
		if r.Strategy != cholesky.Auto.String() {
			continue
		}
		for j, t := range rows {
			if t.Config == r.Config && t.N == r.N && t.Strategy == cholesky.ForceTTC.String() {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

func (w *phantomConv) summary(ls *loopStats) workloadSummary {
	o := ls.outs[0]
	s := workloadSummary{sim: o.sim, stcSaving: stcSaving(o.rows)}
	for _, d := range w.direct {
		s.simTasks += d.Stats.Tasks
		s.sim.energyJ += d.Stats.Energy
	}
	return s
}

// stcSaving is 1 − H2D(STC)/H2D(TTC) summed over the configurations that
// ran both strategies.
func stcSaving(rows []bench.ConvRow) float64 {
	var stc, ttc int64
	for _, p := range stcPairs(rows) {
		stc += rows[p[0]].BytesH2D
		ttc += rows[p[1]].BytesH2D
	}
	if ttc == 0 {
		return 0
	}
	return 1 - float64(stc)/float64(ttc)
}

func (w *phantomConv) evalUnit() string {
	return "simulated factorizations (sweep points) per host second"
}
func (w *phantomConv) keys() int { return 1 }
func (w *phantomConv) refKey(uint64, int) string {
	return "any seed"
}
