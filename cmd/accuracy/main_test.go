package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-dim", "2", "-replicas", "2", "-n", "48", "-ts", "16",
		"-levels", "0,1e-2", "-case", "2D-sqexp weak", "-maxevals", "4"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"2D-sqexp weak", "2 replicas of n=48", "exact", "1e-02"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunShowsFullyFailedLevel: at u_req=1e-2 every evaluation of this
// small study is rejected (Σ(θ) not SPD), so every replica's fit fails. The
// level must stay in the table with its failure count, not vanish or report
// the optimizer's start point as an estimate.
func TestRunShowsFullyFailedLevel(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-dim", "2", "-replicas", "2", "-n", "400", "-ts", "64",
		"-levels", "0,1e-2", "-case", "2D-sqexp weak", "-maxevals", "5"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var rows int
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 10 && f[0] == "1e-02" {
			rows++
			if f[3] != "-" || f[9] != "2" {
				t.Errorf("fully failed level row %q: want no estimate and failed=2", line)
			}
		}
	}
	if rows != 2 {
		t.Errorf("got %d rows for the failed level, want 2 (sigma2, beta):\n%s", rows, out.String())
	}
}

func TestRunBadDim(t *testing.T) {
	if err := run([]string{"-dim", "4"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-dim 4 must fail")
	}
}
