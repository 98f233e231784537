package plan_test

// Cache flow: miss → compile, hit → replay, precision-map change →
// invalidation (with a measured dirty-task count) → recompile, all with
// results indistinguishable from fresh runs.

import (
	"testing"

	"geompc/internal/cholesky"
	"geompc/internal/obs"
	"geompc/internal/plan"
)

func TestRunCachedFlow(t *testing.T) {
	const nt, ranks, dev = 5, 2, 2
	reg := obs.NewRegistry()
	cache := plan.NewCache(reg)
	if cache.Metrics() != reg {
		t.Fatal("cache did not adopt the supplied registry")
	}

	// Miss: first run of the shape compiles.
	c1 := newConfig(t, nt, ranks, dev, 1e-8, "", "")
	r1, err := cholesky.RunCached(c1, cache)
	if err != nil {
		t.Fatalf("miss run: %v", err)
	}
	want := factorBits(c1.Matrix, c1.Desc)
	if s := cache.Stats(); s.Misses != 1 || s.Hits != 0 || cache.Len() != 1 {
		t.Fatalf("after miss: %+v len=%d", s, cache.Len())
	}

	// Hit: same shape and map replays, bit-identically.
	c2 := newConfig(t, nt, ranks, dev, 1e-8, "", "")
	r2, err := cholesky.RunCached(c2, cache)
	if err != nil {
		t.Fatalf("hit run: %v", err)
	}
	if r2.Digest() != r1.Digest() {
		t.Fatalf("replay digest %016x != compile digest %016x", r2.Digest(), r1.Digest())
	}
	sameBits(t, want, factorBits(c2.Matrix, c2.Desc), "cache hit")
	if s := cache.Stats(); s.Hits != 1 || s.Replays != 1 {
		t.Fatalf("after hit: %+v", s)
	}

	// Invalidation: a looser accuracy target re-derives the maps; the cache
	// measures the dirty closure and recompiles.
	c3 := newConfig(t, nt, ranks, dev, 1e-2, "", "")
	r3, err := cholesky.RunCached(c3, cache)
	if err != nil {
		t.Fatalf("invalidation run: %v", err)
	}
	s := cache.Stats()
	if s.Invalidations != 1 || s.TasksInvalidated == 0 {
		t.Fatalf("after invalidation: %+v", s)
	}
	fresh := newConfig(t, nt, ranks, dev, 1e-2, "", "")
	fref, err := cholesky.Run(fresh)
	if err != nil {
		t.Fatalf("fresh mutated run: %v", err)
	}
	if r3.Digest() != fref.Digest() {
		t.Fatalf("recompiled digest %016x != fresh %016x", r3.Digest(), fref.Digest())
	}
	sameBits(t, factorBits(fresh.Matrix, fresh.Desc), factorBits(c3.Matrix, c3.Desc), "recompile")

	// The recompiled plan replaced the stale one: same shape now hits.
	c4 := newConfig(t, nt, ranks, dev, 1e-2, "", "")
	if _, err := cholesky.RunCached(c4, cache); err != nil {
		t.Fatalf("post-recompile hit: %v", err)
	}
	if s := cache.Stats(); s.Hits != 2 || cache.Len() != 1 {
		t.Fatalf("after recompile hit: %+v len=%d", s, cache.Len())
	}

	// The counters surface through the registry under plan/cache/*.
	if got := reg.Counter("plan/cache/hits").Value(); got != 2 {
		t.Fatalf("registry hits counter = %d, want 2", got)
	}

	// A nil cache degrades to a live run.
	n1 := newConfig(t, nt, ranks, dev, 1e-8, "", "")
	nres, err := cholesky.RunCached(n1, nil)
	if err != nil {
		t.Fatalf("nil-cache run: %v", err)
	}
	if nres.Digest() != r1.Digest() {
		t.Fatalf("nil-cache digest %016x != reference %016x", nres.Digest(), r1.Digest())
	}
}
