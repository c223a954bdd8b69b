package mule

import (
	"context"
	"testing"
)

// disjointTriangles returns k vertex-disjoint triangles with edge
// probability 0.9: at α = 0.5 every triangle is one α-maximal clique and
// one 3-truss, so the result count scales with k while the per-component
// work stays fixed.
func disjointTriangles(t testing.TB, k int) *Graph {
	t.Helper()
	b := NewBuilder(3 * k)
	for i := 0; i < k; i++ {
		u := 3 * i
		for _, e := range [][2]int{{u, u + 1}, {u, u + 2}, {u + 1, u + 2}} {
			if err := b.AddEdge(e[0], e[1], 0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// chassisAllocBound caps the allocations of one serial, unsharded run,
// whether it delivers 1,000 results or 4,000: an allocation per result
// would blow through it. It leaves room for pool refills after a GC, which
// vary from run to run.
const chassisAllocBound = 64

// TestQueryRunAllocsFlat pins the clique hot path: Query.Run with a
// visitor, with and without WithLimit, allocates a small per-run constant
// that does not grow with the number of cliques delivered.
func TestQueryRunAllocsFlat(t *testing.T) {
	ctx := context.Background()
	visit := func([]int, float64) bool { return true }
	for _, withLimit := range []bool{false, true} {
		allocs := func(k int) float64 {
			var opts []Option
			if withLimit {
				opts = append(opts, WithLimit(int64(k)))
			}
			q, err := NewQuery(disjointTriangles(t, k), 0.5, opts...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, visit)
			if err != nil || stats.Emitted != int64(k) {
				t.Fatalf("limit=%v: %d cliques, err %v; want %d", withLimit, stats.Emitted, err, k)
			}
			return testing.AllocsPerRun(10, func() { _, _ = q.Run(ctx, visit) })
		}
		small, large := allocs(1000), allocs(4000)
		if max(small, large) > chassisAllocBound {
			t.Errorf("limit=%v: %.0f allocs/run at 1,000 cliques, %.0f at 4,000; want ≤ %d at both",
				withLimit, small, large, chassisAllocBound)
		}
	}
}

// TestTrussRunAllocsFlat pins a single-value family's delivery path: the
// allocations a visitor (and a WithLimit bound) add to TrussQuery.Run are a
// per-run constant, not a per-edge cost.
func TestTrussRunAllocsFlat(t *testing.T) {
	ctx := context.Background()
	visit := func(EdgeTruss) bool { return true }
	for _, withLimit := range []bool{false, true} {
		overhead := func(k int) float64 {
			g := disjointTriangles(t, k)
			countOnly, err := NewTrussQuery(g, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			var opts []Option
			if withLimit {
				opts = append(opts, WithLimit(int64(3*k)))
			}
			q, err := NewTrussQuery(g, 0.5, opts...)
			if err != nil {
				t.Fatal(err)
			}
			base := testing.AllocsPerRun(5, func() { _, _ = countOnly.Run(ctx, nil) })
			return testing.AllocsPerRun(5, func() { _, _ = q.Run(ctx, visit) }) - base
		}
		small, large := overhead(1000), overhead(4000)
		if max(small, large) > chassisAllocBound {
			t.Errorf("limit=%v: the visitor adds %.0f allocs/run at 3,000 edges, %.0f at 12,000; want ≤ %d at both",
				withLimit, small, large, chassisAllocBound)
		}
	}
}

// TestCountOnlyRunSkipsCallback checks that a nil visitor without a limit
// reaches the engines as nil, so they skip the per-result callback, and
// that a limit still installs its counting wrapper.
func TestCountOnlyRunSkipsCallback(t *testing.T) {
	ctx := context.Background()
	g := disjointTriangles(t, 10)
	for _, tc := range []struct {
		opts    []Option
		wantNil bool
	}{{nil, true}, {[]Option{WithLimit(5)}, false}} {
		q, err := NewQuery(g, 0.5, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		mine, gotNil := q.p.fam.mine, false
		q.p.fam.mine = func(ctx context.Context, visit func(Clique) bool) (Stats, error) {
			gotNil = visit == nil
			return mine(ctx, visit)
		}
		if _, err := q.Run(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if gotNil != tc.wantNil {
			t.Errorf("clique opts %v: engine visitor nil = %v, want %v", tc.opts, gotNil, tc.wantNil)
		}

		tq, err := NewTrussQuery(g, 0.5, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		tmine, tgotNil := tq.p.fam.mine, false
		tq.p.fam.mine = func(ctx context.Context, visit func(EdgeTruss) bool) (TrussStats, error) {
			tgotNil = visit == nil
			return tmine(ctx, visit)
		}
		if _, err := tq.Run(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if tgotNil != tc.wantNil {
			t.Errorf("truss opts %v: engine visitor nil = %v, want %v", tc.opts, tgotNil, tc.wantNil)
		}
	}
	if engineVisitor(nil) != nil || cliqueVisitor(nil) != nil {
		t.Error("clique visitor adapters turned a nil visitor into a callback")
	}
}
