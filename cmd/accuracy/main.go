// Command accuracy reproduces the Monte-Carlo parameter-estimation study of
// §VII-B: Fig 5 (2D squared-exponential and Matérn panels with weak/strong
// correlation and rough/smooth fields) and Fig 6 (3D squared-exponential),
// comparing estimates at several mixed-precision accuracy levels against
// exact FP64 computation.
//
// The paper runs 100 replicas of 40,000 locations; the defaults here are
// scaled to laptop budgets (the estimator-consistency shape is visible at
// small n) and can be raised with -replicas/-n.
//
// Usage:
//
//	accuracy -dim 2              # Fig 5
//	accuracy -dim 3              # Fig 6
//	accuracy -dim 2 -replicas 100 -n 1600
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"geompc/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "accuracy:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("accuracy", flag.ContinueOnError)
	dim := fs.Int("dim", 2, "spatial dimension: 2 (Fig 5) or 3 (Fig 6)")
	replicas := fs.Int("replicas", 20, "Monte-Carlo replicas per case (paper: 100)")
	n := fs.Int("n", 400, "locations per replica (paper: 40,000)")
	ts := fs.Int("ts", 64, "tile size")
	levelsFlag := fs.String("levels", "0,1e-9,1e-4,1e-2", "accuracy levels u_req (0 = exact FP64)")
	seed := fs.Uint64("seed", 7, "RNG seed")
	caseFilter := fs.String("case", "", "run only the named case (substring match)")
	maxEvals := fs.Int("maxevals", 0, "cap optimizer evaluations per fit (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var levels []float64
	for _, p := range strings.Split(*levelsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return fmt.Errorf("bad level %q", p)
		}
		levels = append(levels, v)
	}

	var cases []bench.AccuracyCase
	switch *dim {
	case 2:
		cases = bench.Fig5Cases()
	case 3:
		cases = bench.Fig6Cases()
	default:
		return fmt.Errorf("-dim must be 2 or 3")
	}

	for _, c := range cases {
		if *caseFilter != "" && !strings.Contains(c.Name, *caseFilter) {
			continue
		}
		res, err := bench.AccuracyStudyEvals(c, levels, *replicas, *n, *ts, *seed, *maxEvals)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		t := bench.NewTable(
			fmt.Sprintf("%s (truth %v, %d replicas of n=%d)", c.Name, c.TrueTheta, *replicas, *n),
			"u_req", "param", "truth", "median", "mean", "q1", "q3", "whisk-lo", "whisk-hi", "failed")
		for _, r := range res {
			u := "exact"
			if r.UReq > 0 {
				u = fmt.Sprintf("%.0e", r.UReq)
			}
			s := r.Summary
			if s.N == 0 { // every replica failed: no estimate to summarize
				t.Add(u, r.Param, r.Truth, "-", "-", "-", "-", "-", "-", r.Failed)
				continue
			}
			t.Add(u, r.Param, r.Truth, s.Median, s.Mean, s.Q1, s.Q3, s.WhiskerLo, s.WhiskerHi, r.Failed)
		}
		t.Write(out)
	}
	return nil
}
