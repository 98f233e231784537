package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"geompc/internal/bench"
	"geompc/internal/cholesky"
	"geompc/internal/geo"
	"geompc/internal/linalg"
	"geompc/internal/mle"
	"geompc/internal/plan"
	"geompc/internal/prec"
	"geompc/internal/precmap"
	"geompc/internal/stats"
	"geompc/internal/tile"
)

// decompositionPoints is how many seeded θ points the traced run pushes
// through both Problem.NegLogLik and its step-by-step decomposition.
const decompositionPoints = 120

// span is one timed call into a layer; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; it is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(s.End - s.Start)
}

// do records f as a span and returns its duration.
func (t *tracer) do(name string, f func()) time.Duration {
	id := t.begin(name)
	f()
	return t.end(id)
}

// spanTotal is the aggregate of every span with one name.
type spanTotal struct {
	Count       int
	Total, Self time.Duration
}

// totals aggregates spans by name; a span's self time is its duration
// minus its children's (children nest, so they never overlap).
func (t *tracer) totals() map[string]*spanTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &spanTotal{}
			out[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.Total += time.Duration(d)
		a.Self += time.Duration(d - child[i])
	}
	return out
}

func (t *tracer) seconds(name string) float64 {
	var s int64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return float64(s) / 1e9
}

func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

// layerCounts are the exact counts the traced run gathers at layer
// boundaries.
type layerCounts struct {
	entries          int64 // covariance entries generated
	quantizedBytes   int64 // bytes of tiles stored below FP64
	precTiles        map[prec.Precision]int
	stc, comms       int
	tasks            int64
	senderConv       int64
	receiverConv     int64
	lruHits, lruMiss int64
	flops            float64
	mleEvalsRun      int // evaluations of the workload's own driver calls
	mleRejectedRun   int
	planHits         int64
	planMisses       int64
	planInvalidated  int64
	planTasksInvalid int64
	sweepBusy        float64
	sweepPointsPerS  float64
	sweepSpeedup     float64 // serial over parallel grid time
}

func (lc *layerCounts) addMaps(m *precmap.Maps) {
	if lc.precTiles == nil {
		lc.precTiles = map[prec.Precision]int{}
	}
	for p, n := range m.Counts() {
		lc.precTiles[p] += n
	}
	s, c := m.STCCount()
	lc.stc += s
	lc.comms += c
}

func (lc *layerCounts) addRun(r *cholesky.Result) {
	lc.tasks += int64(r.Stats.Tasks)
	lc.senderConv += int64(r.Stats.SenderConversions)
	lc.receiverConv += int64(r.Stats.ReceiverConversions)
	lc.flops += r.Stats.TotalFlops
	for _, d := range r.Stats.Devices {
		lc.lruHits += d.LRUHits
		lc.lruMiss += d.LRUMisses
	}
}

// decomposeNLL evaluates −ℓ(θ) the way Problem.NegLogLik does, one public
// call at a time, each in its own span. cache and phantomCache are the
// plan caches of the numeric and the phantom factorization (nil runs
// cholesky.Run). The result must equal p.NegLogLik bit for bit.
func decomposeNLL(tr *tracer, p *mle.Problem, theta []float64, cache, phantomCache *plan.Cache, lc *layerCounts) (float64, error) {
	root := tr.begin("nll.decomposed")
	defer tr.end(root)
	ladder := p.Ladder
	if ladder == nil {
		ladder = prec.CholeskySet
	}
	n := len(p.Locs)
	pg, qg := tile.SquarestGrid(p.Platform.Ranks)
	desc, err := tile.NewDesc(n, p.TileSize, pg, qg)
	if err != nil {
		return 0, err
	}
	var mat *tile.Matrix
	tr.do("tile.NewMatrix", func() { mat = tile.NewMatrix(desc, false) })
	tr.do("geo.CovTile", func() {
		mat.Fill(func(t *tile.Tile, r0, c0 int) {
			geo.CovTile(p.Locs, r0, c0, t.M, t.N, p.Kernel, theta, p.Nugget, t.Data, t.N)
		})
	})
	var km [][]prec.Precision
	tr.do("precmap.FromMatrix", func() {
		if p.UReq > 0 {
			km = precmap.FromMatrix(mat, p.UReq, ladder)
		} else {
			km = precmap.UniformAll(desc.NT, prec.FP64)
		}
	})
	var maps *precmap.Maps
	tr.do("precmap.New", func() { maps = precmap.New(km, p.UReq) })
	tr.do("tile.SetStorage", func() {
		mat.SetStorage(func(i, j int) prec.Precision { return maps.Storage[i][j] })
	})
	lc.addMaps(maps)
	for i := 0; i < desc.NT; i++ {
		for j := 0; j <= i; j++ {
			t := mat.At(i, j)
			lc.entries += int64(t.M * t.N)
			if t.Storage != prec.FP64 {
				lc.quantizedBytes += int64(8 * t.M * t.N)
			}
		}
	}

	cfg := cholesky.Config{Desc: desc, Maps: maps, Platform: p.Platform, Matrix: mat, Strategy: p.Strategy}
	runName := "cholesky.Run"
	if cache != nil {
		runName = "cholesky.RunCached"
	}
	var res *cholesky.Result
	tr.do(runName, func() { res, err = cholesky.RunCached(cfg, cache) })
	if err != nil {
		return 0, err
	}
	phantom := cfg
	phantom.Matrix = nil
	tr.do("cholesky.phantom", func() { _, err = cholesky.RunCached(phantom, phantomCache) })
	if err != nil {
		return 0, err
	}
	lc.addRun(res)
	if res.Err != nil {
		return math.Inf(1), nil
	}

	logdet := 0.0
	rejected := false
	tr.do("mle.logdet", func() {
		for k := 0; k < desc.NT; k++ {
			t := mat.At(k, k)
			for i := 0; i < t.M; i++ {
				d := t.Data[i*t.N+i]
				if d <= 0 || math.IsNaN(d) {
					rejected = true
					return
				}
				logdet += math.Log(d)
			}
		}
		logdet *= 2
	})
	if rejected {
		return math.Inf(1), nil
	}
	quad := 0.0
	tr.do("linalg.TrsvLNN", func() {
		l := mat.LowerToDense()
		y := append([]float64(nil), p.Z...)
		linalg.TrsvLNN(n, l, n, y)
		for _, v := range y {
			quad += v * v
		}
	})
	nll := 0.5 * (float64(n)*math.Log(2*math.Pi) + logdet + quad)
	if math.IsNaN(nll) {
		return math.Inf(1), nil
	}
	return nll, nil
}

// decomposePoints times Problem.NegLogLik on seeded θ points around truth
// and checks the decomposition against it bit for bit. probs are visited
// round robin; cached selects plan-cached factorizations.
func decomposePoints(tr *tracer, seed uint64, probs []*mle.Problem, truth []float64, cached bool, lc *layerCounts, res *result) error {
	rng := stats.NewRNG(seed, 1<<20)
	// Each problem gets its own caches for the reference evaluation, the
	// decomposition and the phantom run, so all three see the same θ
	// sequence.
	newCaches := func() []*plan.Cache {
		cs := make([]*plan.Cache, len(probs))
		for i := range cs {
			if cached {
				cs[i] = plan.NewCache(nil)
			}
		}
		return cs
	}
	refCaches, caches, phantomCaches := newCaches(), newCaches(), newCaches()
	theta := make([]float64, len(truth))
	for i := 0; i < decompositionPoints; i++ {
		k := i % len(probs)
		for j, v := range truth {
			theta[j] = v * math.Exp(rng.Float64()-0.5)
		}
		ref := *probs[k]
		ref.PlanCache = refCaches[k]
		var want float64
		var err error
		tr.do("mle.NegLogLik", func() { want, err = ref.NegLogLik(theta, nil) })
		if err != nil {
			return err
		}
		got, err := decomposeNLL(tr, probs[k], theta, caches[k], phantomCaches[k], lc)
		if err != nil {
			return err
		}
		res.Attempted++
		if math.Float64bits(got) != math.Float64bits(want) {
			res.Failed++
			res.fail("θ point %d %v: decomposed −ℓ = %v, NegLogLik = %v", i, theta, got, want)
		}
	}
	return nil
}

func (w *mcSqExp) layers(tr *tracer, lc *layerCounts, res *result) error {
	return decomposePoints(tr, w.cfg.Seed, w.probs, w.cfg.TrueTheta, false, lc, res)
}

func (w *fitMatern) layers(tr *tracer, lc *layerCounts, res *result) error {
	probs := make([]*mle.Problem, len(w.data))
	for k := range w.data {
		probs[k] = w.problem(k, nil)
	}
	return decomposePoints(tr, w.seed, probs, fitTheta, true, lc, res)
}

func (w *phantomConv) layers(tr *tracer, lc *layerCounts, res *result) error {
	var par, serial []bench.ConvRow
	var err error
	parallel := tr.do("bench.ConvSweepOpts.parallel", func() { par, err = w.sweep(nproc(), nil) })
	if err != nil {
		return err
	}
	lc.sweepSpeedup = tr.do("bench.ConvSweepOpts.serial", func() { serial, err = w.sweep(0, nil) }).Seconds() / parallel.Seconds()
	if err != nil {
		return err
	}
	res.Attempted++
	if len(par) != len(serial) {
		res.Failed++
		res.fail("parallel sweep has %d rows, serial %d", len(par), len(serial))
	} else {
		for i := range par {
			if par[i] != serial[i] {
				res.Failed++
				res.fail("row %d: parallel %+v, serial %+v", i, par[i], serial[i])
				break
			}
		}
	}
	err = w.runDirect(par, func(cfg cholesky.Config) (*cholesky.Result, error) {
		var r *cholesky.Result
		var err error
		tr.do("precmap.New", func() { cfg.Maps = precmap.New(cfg.Maps.Kernel, cfg.Maps.UReq) })
		tr.do("cholesky.phantom", func() { r, err = cholesky.Run(cfg) })
		if err == nil {
			lc.addMaps(cfg.Maps)
			lc.addRun(r)
		}
		return r, err
	})
	if err != nil {
		return err
	}
	w.checkDirect(par, res)
	return nil
}

// runTraced is the traced run: untraced and traced iterations (the latter
// under a CPU profile, each driver call in a span), then the workload's
// step-by-step decomposition, then the per-layer table.
func runTraced(o options, refs *refStore, host hostInfo, stdout io.Writer) (*result, error) {
	w := workloads[o.workload]()
	tr := newTracer()
	var err error
	tr.do("setup", func() { err = w.setup(o.seed) })
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	res := &result{}
	half := time.Duration(o.seconds) * time.Second / 2
	plain := iterateFor(w, half, res)

	var prof bytes.Buffer
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0, gcCPU0 := cpuClasses()
	ru0 := rusageSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t0 := time.Now()
	traced := iterateFor(tracedWorkload{workload: w, tr: tr}, half, res)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	ru1 := rusageSeconds()
	cpu1, gcCPU1 := cpuClasses()
	goruntime.ReadMemStats(&ms1)

	all := &loopStats{outs: append(append([]iterOut(nil), plain.outs...), traced.outs...)}
	w.verify(all, refs, o.seed, res)
	all.tally(res)

	var lc layerCounts
	if err := w.layers(tr, &lc, res); err != nil {
		return nil, fmt.Errorf("%s decomposition: %w", o.workload, err)
	}
	// Counts come from the first iteration on each input set, so they
	// repeat exactly for one seed.
	for _, o := range all.firstPerKey() {
		lc.planHits += o.planStats.Hits
		lc.planMisses += o.planStats.Misses
		lc.planInvalidated += o.planStats.Invalidations
		lc.planTasksInvalid += o.planStats.TasksInvalidated
		if o.rows == nil { // sweep points are not likelihood evaluations
			lc.mleEvalsRun += o.evals
			lc.mleRejectedRun += o.rejected
		}
	}
	for _, out := range traced.outs {
		lc.sweepBusy += out.sweep.BusyFrac / float64(len(traced.outs))
		lc.sweepPointsPerS += out.sweep.PointsPerSec / float64(len(traced.outs))
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := foldProfile(samples)
	s := w.summary(all)
	iters := float64(len(traced.walls))

	run := tr.seconds("cholesky.Run") + tr.seconds("cholesky.RunCached")
	phantom := tr.seconds("cholesky.phantom")
	if run == 0 {
		run = phantom // a phantom-only workload factorizes nothing numerically
	}
	numeric := run - phantom
	gen := tr.seconds("geo.CovTile")
	res.set("geo.gen_s", "s", gen)
	res.set("geo.entries", "count", float64(lc.entries))
	res.set("geo.ns_per_entry", "ns", ratio(gen*1e9, float64(lc.entries)))
	res.set("precmap.build_s", "s", tr.seconds("precmap.FromMatrix")+tr.seconds("precmap.New"))
	var tiles int
	for _, c := range lc.precTiles {
		tiles += c
	}
	for _, pc := range []struct {
		name string
		p    prec.Precision
	}{{"fp64", prec.FP64}, {"fp32", prec.FP32}, {"fp16x32", prec.FP16x32}, {"fp16", prec.FP16}} {
		res.set("precmap.frac_"+pc.name, "ratio", ratio(float64(lc.precTiles[pc.p]), float64(tiles)))
	}
	res.set("precmap.stc_frac", "ratio", ratio(float64(lc.stc), float64(lc.comms)))
	res.set("tile.quantize_s", "s", tr.seconds("tile.SetStorage"))
	res.set("tile.quantized_mb", "MB", float64(lc.quantizedBytes)/1e6)
	runs := append(tr.durationsMS("cholesky.Run"), tr.durationsMS("cholesky.RunCached")...)
	if len(runs) == 0 {
		runs = tr.durationsMS("cholesky.phantom")
	}
	res.set("cholesky.run_s", "s", run)
	res.set("cholesky.run_ms_p50", "ms", quantile(runs, 0.5))
	res.set("cholesky.run_ms_p90", "ms", quantile(runs, 0.9))
	res.set("cholesky.phantom_s", "s", phantom)
	res.set("runtime.tasks", "count", float64(lc.tasks))
	res.set("runtime.ns_per_task", "ns", ratio(phantom*1e9, float64(lc.tasks)))
	res.set("runtime.sender_conv", "count", float64(lc.senderConv))
	res.set("runtime.receiver_conv", "count", float64(lc.receiverConv))
	res.set("runtime.lru_hit_ratio", "ratio", ratio(float64(lc.lruHits), float64(lc.lruHits+lc.lruMiss)))
	res.set("kernels.numeric_s", "s", numeric)
	if numeric <= 0 {
		res.set("kernels.flops", "flop", 0)
		res.set("kernels.gflops", "Gflop/s", 0)
	} else {
		res.set("kernels.flops", "flop", lc.flops)
		res.set("kernels.gflops", "Gflop/s", lc.flops/numeric/1e9)
	}
	res.set("plan.hits", "count", float64(lc.planHits))
	res.set("plan.misses", "count", float64(lc.planMisses))
	res.set("plan.invalidations", "count", float64(lc.planInvalidated))
	res.set("plan.tasks_invalidated", "count", float64(lc.planTasksInvalid))
	res.set("plan.hit_ratio", "ratio", ratio(float64(lc.planHits), float64(lc.planHits+lc.planMisses+lc.planInvalidated)))
	nll := tr.durationsMS("mle.NegLogLik")
	res.set("mle.evals", "count", float64(lc.mleEvalsRun))
	res.set("mle.rejected", "count", float64(lc.mleRejectedRun))
	res.set("mle.eval_ms_p50", "ms", quantile(nll, 0.5))
	res.set("mle.eval_ms_p90", "ms", quantile(nll, 0.9))
	res.set("sweep.busy_frac", "ratio", lc.sweepBusy)
	res.set("sweep.points_per_s", "1/s", lc.sweepPointsPerS)
	res.set("sweep.speedup", "ratio", lc.sweepSpeedup)
	res.set("fanout.cpu_util", "ratio", (ru1-ru0)/(wall*float64(nproc())))
	res.set("gc.cycles", "count", float64(ms1.NumGC-ms0.NumGC)/iters)
	res.set("gc.pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/iters)
	res.set("gc.cpu_frac", "ratio", ratio(gcCPU1-gcCPU0, cpu1-cpu0))
	var shareSum float64
	for _, r := range shareRows() {
		res.set("share."+r, "ratio", shares[r])
		shareSum += shares[r]
	}
	if len(samples) > 0 && math.Abs(shareSum-1) > 1e-9 {
		res.fail("profile shares sum to %v", shareSum)
	}
	res.set("trace.overhead_s", "s", median(traced.walls)-median(plain.walls))
	res.set("sim_makespan_s", "s", s.sim.makespan)
	res.set("sim_energy_kj", "kJ", s.sim.energyJ/1e3)
	res.set("sim_h2d_gb", "GB", float64(s.sim.h2d)/1e9)
	res.set("sim_net_gb", "GB", float64(s.sim.net)/1e9)
	res.set("stc_h2d_saving", "ratio", s.stcSaving)
	res.set("mle_rejected_frac", "ratio", ratio(float64(lc.mleRejectedRun), float64(lc.mleEvalsRun)))
	res.set("theta_relerr", "ratio", s.thetaRelErr)

	if err := writeTrace(o, tr, res, host); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s seed=%d traced: %d untraced + %d traced iterations, %d spans, %d profile samples\n",
		o.workload, o.seed, len(plain.walls), len(traced.walls), len(tr.spans), len(samples))
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedWorkload records each iteration's driver call in a span.
type tracedWorkload struct {
	workload
	tr *tracer
}

func (t tracedWorkload) iterate(i int) (out iterOut, err error) {
	t.tr.do("iteration", func() { out, err = t.workload.iterate(i) })
	return out, err
}

// cpuClasses returns the runtime's total and GC CPU-second estimates.
func cpuClasses() (total, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// rusageSeconds is the process's user plus system CPU time.
func rusageSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTrace stores the spans and the per-layer table (host facts, span
// totals with self time, then every metric) under o.out.
func writeTrace(o options, tr *tracer, res *result, host hostInfo) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", b, 0o644); err != nil {
		return err
	}
	var t bytes.Buffer
	fmt.Fprintf(&t, "%s\n\n", host)
	fmt.Fprintf(&t, "%-30s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	totals := tr.totals()
	for _, name := range sortedKeys(totals) {
		a := totals[name]
		fmt.Fprintf(&t, "%-30s %7d %12.3f %12.3f\n", name, a.Count, float64(a.Total)/1e6, float64(a.Self)/1e6)
	}
	fmt.Fprintln(&t)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(&t, "%-30s %16.6g %s\n", name, m.Value, m.Unit)
	}
	return os.WriteFile(base+"-layers.txt", t.Bytes(), 0o644)
}
