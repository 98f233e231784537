// Command e2ebench is geompc's end-to-end benchmark. It runs one of three
// paper pipelines through the public driver a user calls — the Fig 5
// Monte-Carlo study (mle.MonteCarlo), one plan-cached MLE fit (mle.Fit)
// and the Fig 8/11 STC-vs-TTC phantom sweep (bench.ConvSweepOpts) —
// checks their outputs, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	e2ebench --workload mc-sqexp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics (host time with
// tracing off). With --trace 1 a separate run records spans around its own
// calls into each layer, takes a CPU profile folded by package, and
// reports the per-layer table; spans and the table are written under
// --out. See README.md for the workloads, metrics and baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 5

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	writeRefs bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadList())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (claims use seed 1; seed 7 is held out)")
	fs.IntVar(&o.seconds, "seconds", 20, "measured duration in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer table")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for spans and layer tables of traced runs")
	fs.BoolVar(&o.writeRefs, "write-refs", false, "run one iteration and record its output digests in refs.json instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadList())
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	host := readHost()
	fmt.Fprintln(stdout, host)

	if o.writeRefs {
		return writeRefs(o, refs, stdout)
	}
	var res *result
	if o.trace == 1 {
		res, err = runTraced(o, refs, host, stdout)
	} else {
		res, err = runTimed(o, refs, stdout)
	}
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every failed output check, printed before the JSON.
	problems []string
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(w io.Writer) error {
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// runTimed is the untraced run: set up several times, then iterate the
// workload for the requested seconds and report the end-to-end metrics.
func runTimed(o options, refs *refStore, stdout io.Writer) (*result, error) {
	w, setupTimes, err := setupRepeated(o)
	if err != nil {
		return nil, err
	}
	res := &result{}
	loop := iterateFor(w, time.Duration(o.seconds)*time.Second, res)
	w.verify(loop, refs, o.seed, res)
	loop.tally(res)

	wall := median(loop.walls)
	evalsPerS := float64(loop.evals) / sum(loop.walls)
	res.set("setup_s", "s", median(setupTimes))
	res.set("wall_s", "s", wall)
	res.set("evals_per_s", "1/s", evalsPerS)
	res.set("alloc_mb", "MB", median(loop.allocMB))

	s := w.summary(loop)
	t := newTable(fmt.Sprintf("%s seed=%d: %d iterations in %.1fs", o.workload, o.seed, len(loop.walls), sum(loop.walls)))
	t.row("setup_s", "s", median(setupTimes), fmt.Sprintf("median of %d set-ups", len(setupTimes)))
	t.row("wall_s", "s", wall, fmt.Sprintf("median of %d iterations, p90 %.4g", len(loop.walls), quantile(loop.walls, 0.9)))
	t.row("evals_per_s", "1/s", evalsPerS, w.evalUnit())
	if s.simTasks > 0 {
		t.row("sim_tasks_per_s", "1/s", float64(s.simTasks)/wall, "simulated tasks per host second")
	} else {
		t.na("sim_tasks_per_s", "1/s", "the MLE drivers report no task counts")
	}
	t.row("alloc_mb", "MB", median(loop.allocMB), "allocated per iteration")
	t.row("fail_frac", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), fmt.Sprintf("%d of %d operations", res.Failed, res.Attempted))
	if s.isMLE {
		var evals, rejected int
		for _, o := range loop.firstPerKey() {
			evals += o.evals
			rejected += o.rejected
		}
		t.row("mle_rejected_frac", "ratio", float64(rejected)/float64(max(evals, 1)), fmt.Sprintf("%d of %d evaluations", rejected, evals))
		t.row("theta_relerr", "ratio", s.thetaRelErr, "median |θ̂−θ|/θ at the lowest-precision level")
		t.na("stc_h2d_saving", "ratio", "MLE workloads run one precision map at a time")
	} else {
		t.na("mle_rejected_frac", "ratio", "no likelihood evaluations")
		t.na("theta_relerr", "ratio", "no estimates")
		t.row("stc_h2d_saving", "ratio", s.stcSaving, "1 − H2D(STC)/H2D(TTC), mixed-precision configurations")
	}
	const simNote = "first iteration on input set 0"
	t.row("sim_makespan_s", "s(virtual)", s.sim.makespan, simNote)
	t.row("sim_energy_kj", "kJ(virtual)", s.sim.energyJ/1e3, simNote)
	if s.sim.bytesKnown {
		t.row("sim_h2d_gb", "GB(virtual)", float64(s.sim.h2d)/1e9, simNote)
		t.row("sim_net_gb", "GB(virtual)", float64(s.sim.net)/1e9, simNote)
	} else {
		t.na("sim_h2d_gb", "GB(virtual)", "mle.MonteCarlo does not aggregate byte counts")
		t.na("sim_net_gb", "GB(virtual)", "mle.MonteCarlo does not aggregate byte counts")
	}
	t.write(stdout)
	return res, nil
}

// setupRepeated builds the workload setupRepeats times and returns the
// last instance with every set-up's duration.
func setupRepeated(o options) (workload, []float64, error) {
	var w workload
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		w = workloads[o.workload]()
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, times, nil
}

// loopStats collects one timed loop.
type loopStats struct {
	walls, allocMB []float64
	outs           []iterOut
	evals          int
}

// iterateFor runs iterations until d has elapsed, and at least once on
// every input set.
func iterateFor(w workload, d time.Duration, res *result) *loopStats {
	ls := &loopStats{}
	start := time.Now()
	for i := 0; i < w.keys() || time.Since(start) < d; i++ {
		a0 := heapAllocBytes()
		t0 := time.Now()
		out, err := w.iterate(i)
		wall := time.Since(t0).Seconds()
		a1 := heapAllocBytes()
		ls.walls = append(ls.walls, wall)
		ls.allocMB = append(ls.allocMB, float64(a1-a0)/1e6)
		if err != nil {
			res.fail("iteration %d: %v", i, err)
		}
		ls.outs = append(ls.outs, out)
		ls.evals += out.evals
	}
	return ls
}

// firstPerKey returns the first successful iteration on each input set.
func (ls *loopStats) firstPerKey() []iterOut {
	var out []iterOut
	seen := map[int]bool{}
	for _, o := range ls.outs {
		if o.digests != nil && !seen[o.key] {
			seen[o.key] = true
			out = append(out, o)
		}
	}
	return out
}

// tally folds the loop's operation counts into the result.
func (ls *loopStats) tally(res *result) {
	for _, o := range ls.outs {
		res.Attempted += o.ops
		res.Failed += o.failedOps
	}
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// table prints the human-readable metric table that precedes the JSON.
type table struct {
	title string
	rows  [][4]string
}

func newTable(title string) *table { return &table{title: title} }

func (t *table) row(name, unit string, v float64, note string) {
	t.rows = append(t.rows, [4]string{name, fmt.Sprintf("%.6g", v), unit, note})
}

func (t *table) na(name, unit, why string) {
	t.rows = append(t.rows, [4]string{name, "n/a", unit, why})
}

func (t *table) write(w io.Writer) {
	fmt.Fprintln(w, t.title)
	for _, r := range t.rows {
		fmt.Fprintf(w, "  %-22s %14s %-12s %s\n", r[0], r[1], r[2], r[3])
	}
}
