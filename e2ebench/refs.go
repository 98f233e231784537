package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// refsJSON holds the reference output digests: for each workload, a map
// from input set ("seed=1", "seed=1/dataset=2", or "any seed" for the
// seed-independent phantom grid) to the digests an iteration must print.
//
//go:embed refs.json
var refsJSON []byte

// refsPath is where --write-refs stores refs.json, relative to the root
// of the checkout the benchmark runs from.
var refsPath = filepath.Join("e2ebench", "refs.json")

type refStore struct {
	Digests map[string]map[string][]string `json:"digests"`
}

func loadRefs() (*refStore, error) {
	var r refStore
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if r.Digests == nil {
		r.Digests = map[string]map[string][]string{}
	}
	return &r, nil
}

func (r *refStore) lookup(workload, key string) ([]uint64, bool) {
	hex, ok := r.Digests[workload][key]
	if !ok {
		return nil, false
	}
	out := make([]uint64, len(hex))
	for i, h := range hex {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

func hexDigests(ds []uint64) string {
	s := make([]string, len(ds))
	for i, d := range ds {
		s[i] = fmt.Sprintf("%016x", d)
	}
	return strings.Join(s, ",")
}

// writeRefs runs one iteration per input set of the seed and stores the
// digests in refs.json.
func writeRefs(o options, refs *refStore, stdout io.Writer) error {
	w := workloads[o.workload]()
	if err := w.setup(o.seed); err != nil {
		return err
	}
	if refs.Digests[o.workload] == nil {
		refs.Digests[o.workload] = map[string][]string{}
	}
	for i := 0; i < w.keys(); i++ {
		t0 := time.Now()
		out, err := w.iterate(i)
		if err != nil {
			return err
		}
		if out.failedOps > 0 {
			return fmt.Errorf("iteration %d: %d of %d operations failed", i, out.failedOps, out.ops)
		}
		key := w.refKey(o.seed, out.key)
		hex := make([]string, len(out.digests))
		for j, d := range out.digests {
			hex[j] = fmt.Sprintf("%016x", d)
		}
		refs.Digests[o.workload][key] = hex
		fmt.Fprintf(stdout, "%s %s: %s (%.2fs)\n", o.workload, key, strings.Join(hex, ","), time.Since(t0).Seconds())
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(b, '\n'), 0o644)
}
