package mule

import (
	"context"
	"iter"
	"sort"

	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/ucore"
	"github.com/uncertain-graphs/mule/internal/uquasi"
	"github.com/uncertain-graphs/mule/internal/utruss"
)

// This file gives every §6 dense-substructure miner the same prepared-query
// ergonomics as NewQuery: each query type is the shared chassis
// (chassis.go) plus a small family adapter, so every one is immutable,
// concurrency-safe, validated eagerly against the shared typed sentinels,
// and exposes context-aware Run / Collect / Count plus a Stream
// range-over-func with the same break-stops-the-engine, no-goroutine-leak
// contract as Query.Cliques. The deprecated flat functions in extensions.go
// funnel through these constructors, so no entry point can run a
// configuration the query surface would reject.

// --- Biclique queries ---

// BicliqueQuery is a prepared enumeration of the α-maximal bicliques of one
// uncertain bipartite graph at one threshold. Build it with
// NewBicliqueQuery; it is immutable after construction and safe for
// concurrent use, and every run method honors its context exactly like a
// clique Query (the search polls on a node-count interval).
type BicliqueQuery struct {
	p prepared[Biclique, BicliqueStats]
}

// NewBicliqueQuery prepares an enumeration of the α-maximal bicliques of g.
// It validates eagerly: a nil graph, an alpha outside (0,1], or an invalid
// option combination is reported here (wrapping ErrNilGraph, ErrAlphaRange,
// or ErrConfig). Applicable options: WithSides, WithLimit, WithBudget.
func NewBicliqueQuery(g *Bipartite, alpha float64, opts ...Option) (*BicliqueQuery, error) {
	o, p, err := prepare[Biclique, BicliqueStats](kindBiclique, opts)
	if err != nil {
		return nil, err
	}
	cfg := ubiclique.Config{MinLeft: o.minL, MinRight: o.minR, Budget: o.cfg.Budget, Stall: o.stall}
	return newBicliqueQuery(g, alpha, cfg, p)
}

// newBicliqueQuery is the single constructor behind NewBicliqueQuery and
// the deprecated wrappers: it validates the engine config and installs the
// biclique family adapter, which remaps each side through its own shard
// table and copies bicliques out of the engine's reused buffers.
func newBicliqueQuery(g *Bipartite, alpha float64, cfg ubiclique.Config, p prepared[Biclique, BicliqueStats]) (*BicliqueQuery, error) {
	if err := ubiclique.Validate(g, alpha, cfg); err != nil {
		return nil, err
	}
	mineOn := func(ctx context.Context, g *Bipartite, budget int64, visit func(Biclique) bool) (BicliqueStats, error) {
		c := cfg
		c.Budget = budget
		var engineVisit BicliqueVisitor
		if visit != nil {
			engineVisit = func(l, r []int, p float64) bool { return visit(Biclique{Left: l, Right: r, Prob: p}) }
		}
		return ubiclique.EnumerateContext(ctx, g, alpha, engineVisit, c)
	}
	own := func(b Biclique) Biclique {
		return Biclique{Left: append([]int(nil), b.Left...), Right: append([]int(nil), b.Right...), Prob: b.Prob}
	}
	p.budget = cfg.Budget
	p.fam = family[Biclique, BicliqueStats]{
		mine: func(ctx context.Context, visit func(Biclique) bool) (BicliqueStats, error) {
			return mineOn(ctx, g, cfg.Budget, visit)
		},
		parts: func(yield func(part[Biclique, BicliqueStats]) bool) {
			for sh := range g.ShardByComponent() {
				if !yield(part[Biclique, BicliqueStats]{
					id: sh.ID,
					mine: func(ctx context.Context, budget int64, visit func(Biclique) bool) (BicliqueStats, error) {
						return mineOn(ctx, sh.G, budget, visit)
					},
					remap: func(b Biclique) Biclique {
						b = own(b)
						remapIDs(b.Left, sh.LeftNewToOld)
						remapIDs(b.Right, sh.RightNewToOld)
						return b
					},
				}) {
					return
				}
			}
		},
		numParts: g.NumComponents,
		fold: func(agg *BicliqueStats, s BicliqueStats) int64 {
			agg.Calls += s.Calls
			agg.Emitted += s.Emitted
			agg.Cut += s.Cut
			agg.CandidateOps += s.CandidateOps
			agg.WitnessOps += s.WitnessOps
			agg.PrunedEdges += s.PrunedEdges
			agg.MaxLeft = max(agg.MaxLeft, s.MaxLeft)
			agg.MaxRight = max(agg.MaxRight, s.MaxRight)
			return s.Calls
		},
		tally: func(s *BicliqueStats) (*RunStatus, *int64) { return &s.Status, &s.Emitted },
		own:   own,
		sort:  ubiclique.SortBicliques,
	}
	return &BicliqueQuery{p: p}, nil
}

// Run enumerates the query's bicliques, invoking visit for each (visit may
// be nil to only count; see BicliqueStats.Emitted). Like Query.Run it
// returns an error wrapping context.Canceled / context.DeadlineExceeded on
// a fired context, ErrBudget on an exhausted WithBudget bound, and
// ErrStopped when visit returned false — err == nil means the enumeration
// ran to completion or to its WithLimit bound, with Stats.Status recording
// the terminal state either way.
func (q *BicliqueQuery) Run(ctx context.Context, visit BicliqueVisitor) (BicliqueStats, error) {
	if visit == nil {
		return q.p.run(ctx, nil)
	}
	return q.p.run(ctx, func(b Biclique) bool { return visit(b.Left, b.Right, b.Prob) })
}

// Collect materializes the query's bicliques in canonical order (each side
// sorted ascending; bicliques sorted by left side, ties by right).
func (q *BicliqueQuery) Collect(ctx context.Context) ([]Biclique, error) {
	return q.p.collect(ctx)
}

// Count returns the number of bicliques the query enumerates, without
// materializing them.
func (q *BicliqueQuery) Count(ctx context.Context) (int64, error) {
	return q.p.count(ctx)
}

// Stream returns the query's bicliques as a range-over-func stream:
//
//	for b, err := range q.Stream(ctx) {
//		if err != nil {
//			return err // ctx fired or the budget ran out
//		}
//		use(b)
//	}
//
// Bicliques are yielded as the search finds them, each with a nil error; if
// the run aborts, one final (Biclique{}, err) pair carries the wrapped
// cause and the stream ends. Breaking out of the loop stops the underlying
// enumeration on the spot and never leaks goroutines (the search is
// single-threaded, so nothing outlives the loop).
func (q *BicliqueQuery) Stream(ctx context.Context) iter.Seq2[Biclique, error] {
	return q.p.stream(ctx)
}

// --- Quasi-clique queries ---

// QuasiVisitor receives each maximal expected γ-quasi-clique as a sorted
// vertex slice (caller-owned); returning false stops the report loop.
type QuasiVisitor = uquasi.Visitor

// QuasiQuery is a prepared mining run for the maximal expected
// γ-quasi-cliques of one uncertain graph. Build it with NewQuasiQuery; it
// is immutable after construction and safe for concurrent use.
//
// Quasi-cliques are not hereditary, so maximality needs global knowledge:
// the search must complete before anything is reported. Run, Stream, and
// the WithLimit bound therefore apply to the report loop over the finished
// result — cancellation and WithBudget still abort the mining itself
// mid-search.
type QuasiQuery struct {
	p prepared[[]int, QuasiStats]
}

// NewQuasiQuery prepares a mining run for the maximal expected
// γ-quasi-cliques of g. The density threshold γ comes from WithGamma and is
// required: the mining algorithm supports γ ∈ [0.5, 1], and anything else —
// including the zero value from omitting WithGamma — is rejected here with
// a wrapped ErrGammaRange. Applicable options: WithGamma, WithMinSize,
// WithMaxSize, WithLimit, WithBudget.
func NewQuasiQuery(g *Graph, opts ...Option) (*QuasiQuery, error) {
	o, p, err := prepare[[]int, QuasiStats](kindQuasi, opts)
	if err != nil {
		return nil, err
	}
	cfg := uquasi.Config{Gamma: o.gamma, MinSize: o.cfg.MinSize, MaxSize: o.maxSize, Budget: o.cfg.Budget, Stall: o.stall}
	return newQuasiQuery(g, cfg, p)
}

// newQuasiQuery is the single constructor behind NewQuasiQuery and the
// deprecated wrappers: it validates the engine config and installs the
// quasi-clique family adapter, a merged family — maximality needs the whole
// graph, so each run mines to completion before its report loop.
func newQuasiQuery(g *Graph, cfg uquasi.Config, p prepared[[]int, QuasiStats]) (*QuasiQuery, error) {
	if err := uquasi.Validate(g, cfg); err != nil {
		return nil, err
	}
	mineOn := func(ctx context.Context, g *Graph, budget int64, visit func([]int) bool) (QuasiStats, error) {
		c := cfg
		c.Budget = budget
		sets, stats, err := uquasi.CollectContext(ctx, g, c)
		if err != nil {
			return stats, err
		}
		// Emitted is the delivered count: a set that reached the visitor is
		// emitted even if it stopped the report, like every other miner.
		stats.Emitted = 0
		for _, s := range sets {
			stats.Emitted++
			if visit != nil && !visit(s) {
				stats.Status = StatusStopped
				break
			}
		}
		return stats, nil
	}
	p.budget = cfg.Budget
	p.fam = family[[]int, QuasiStats]{
		mine: func(ctx context.Context, visit func([]int) bool) (QuasiStats, error) {
			return mineOn(ctx, g, cfg.Budget, visit)
		},
		// γ ≥ ½ forces a quasi-clique's diameter ≤ 2, hence connectivity, so
		// components mine independently.
		parts:    componentParts(g, mineOn, remapIDs),
		numParts: g.NumComponents,
		fold: func(agg *QuasiStats, s QuasiStats) int64 {
			agg.Calls += s.Calls
			agg.Found += s.Found
			agg.Pruned += s.Pruned
			agg.Universe += s.Universe
			agg.FilterOps += s.FilterOps
			agg.MaxSize = max(agg.MaxSize, s.MaxSize)
			return s.Calls
		},
		tally: func(s *QuasiStats) (*RunStatus, *int64) { return &s.Status, &s.Emitted },
		// Each component's sets are canonical within it; the report loop's
		// contract is global lexicographic order.
		global: func(_ context.Context, all [][]int, _ *QuasiStats) error {
			sort.Slice(all, func(i, j int) bool { return lexLess(all[i], all[j]) })
			return nil
		},
	}
	return &QuasiQuery{p: p}, nil
}

// Run mines the query's quasi-cliques and reports each to visit (visit may
// be nil to only count). The error contract matches Query.Run: wrapped
// context/budget causes for aborts, ErrStopped when visit returned false,
// nil for complete runs and WithLimit truncation.
func (q *QuasiQuery) Run(ctx context.Context, visit QuasiVisitor) (QuasiStats, error) {
	return q.p.run(ctx, visit)
}

// Collect returns the maximal expected γ-quasi-cliques in canonical order
// (each sorted ascending; sets sorted lexicographically).
func (q *QuasiQuery) Collect(ctx context.Context) ([][]int, error) {
	return q.p.collect(ctx)
}

// Count returns the number of maximal expected γ-quasi-cliques, without
// materializing them (subject to WithLimit, like every run method).
func (q *QuasiQuery) Count(ctx context.Context) (int64, error) {
	return q.p.count(ctx)
}

// Stream returns the query's quasi-cliques as a range-over-func stream with
// the same contract as Query.Cliques: each set is yielded with a nil error,
// an aborted run ends with one final (nil, err) pair, and breaking the loop
// stops the report immediately with nothing leaked. Because maximality
// needs global knowledge, the mining runs to completion when the first
// element is requested; sets then stream in canonical order.
func (q *QuasiQuery) Stream(ctx context.Context) iter.Seq2[[]int, error] {
	return q.p.stream(ctx)
}

// --- Truss queries ---

// TrussVisitor receives one edge with its final η-truss number, in peel
// order; returning false stops the decomposition early.
type TrussVisitor = utruss.Visitor

// TrussStats reports the work performed by a truss computation.
type TrussStats = utruss.Stats

// TrussQuery is a prepared (k,η)-truss decomposition of one uncertain
// graph at one confidence threshold η. Build it with NewTrussQuery; it is
// immutable after construction and safe for concurrent use. The peeling
// polls its context between support-probability evaluations, so
// cancellation, deadlines, and WithBudget bounds abort mid-decomposition.
type TrussQuery struct {
	p   prepared[EdgeTruss, TrussStats]
	g   *Graph
	eta float64
	cfg utruss.Config
}

// NewTrussQuery prepares the η-truss decomposition of g. It validates
// eagerly: a nil graph wraps ErrNilGraph, an eta outside (0,1] wraps
// ErrEtaRange. Applicable options: WithLimit, WithBudget.
func NewTrussQuery(g *Graph, eta float64, opts ...Option) (*TrussQuery, error) {
	o, p, err := prepare[EdgeTruss, TrussStats](kindTruss, opts)
	if err != nil {
		return nil, err
	}
	return newTrussQuery(g, eta, utruss.Config{Budget: o.cfg.Budget, Stall: o.stall}, p)
}

// newTrussQuery is the single constructor behind NewTrussQuery and the
// deprecated wrappers: it validates the engine config and installs the
// truss family adapter. Sharding peels each component independently, which
// changes stream order but never the edge→truss assignment: a component's
// peeling never depends on edges outside it.
func newTrussQuery(g *Graph, eta float64, cfg utruss.Config, p prepared[EdgeTruss, TrussStats]) (*TrussQuery, error) {
	if err := utruss.Validate(g, eta, cfg); err != nil {
		return nil, err
	}
	mineOn := func(ctx context.Context, g *Graph, budget int64, visit func(EdgeTruss) bool) (TrussStats, error) {
		c := cfg
		c.Budget = budget
		return utruss.RunContext(ctx, g, eta, c, visit)
	}
	p.budget = cfg.Budget
	p.fam = family[EdgeTruss, TrussStats]{
		mine: func(ctx context.Context, visit func(EdgeTruss) bool) (TrussStats, error) {
			return mineOn(ctx, g, cfg.Budget, visit)
		},
		parts: componentParts(g, mineOn, func(e EdgeTruss, newToOld []int) EdgeTruss {
			// The remap is monotone, so U < V survives it.
			return EdgeTruss{U: newToOld[e.U], V: newToOld[e.V], Truss: e.Truss}
		}),
		numParts: g.NumComponents,
		fold: func(agg *TrussStats, s TrussStats) int64 {
			agg.Checks += s.Checks
			agg.Removed += s.Removed
			agg.Emitted += s.Emitted
			agg.MaxTruss = max(agg.MaxTruss, s.MaxTruss)
			return s.Checks
		},
		tally: func(s *TrussStats) (*RunStatus, *int64) { return &s.Status, &s.Emitted },
		sort: func(out []EdgeTruss) {
			sort.Slice(out, func(i, j int) bool {
				if out[i].U != out[j].U {
					return out[i].U < out[j].U
				}
				return out[i].V < out[j].V
			})
		},
	}
	return &TrussQuery{p: p, g: g, eta: eta, cfg: cfg}, nil
}

// Run performs the decomposition, streaming every edge with its final
// η-truss number to visit in peel order (visit may be nil to only count;
// see TrussStats.Emitted). The error contract matches Query.Run.
func (q *TrussQuery) Run(ctx context.Context, visit TrussVisitor) (TrussStats, error) {
	return q.p.run(ctx, visit)
}

// Collect returns the full decomposition — every edge with its η-truss
// number — sorted by (U, V).
func (q *TrussQuery) Collect(ctx context.Context) ([]EdgeTruss, error) {
	return q.p.collect(ctx)
}

// Count returns the number of edges the decomposition assigns a truss
// number (the graph's edge count on a complete run, fewer under WithLimit).
func (q *TrussQuery) Count(ctx context.Context) (int64, error) {
	return q.p.count(ctx)
}

// Stream returns the decomposition as a range-over-func stream in peel
// order, with the same contract as Query.Cliques: each edge is yielded with
// a nil error, an aborted run ends with one final (EdgeTruss{}, err) pair,
// and breaking the loop stops the peeling on the spot with nothing leaked.
func (q *TrussQuery) Stream(ctx context.Context) iter.Seq2[EdgeTruss, error] {
	return q.p.stream(ctx)
}

// Truss returns the (k,η)-truss of the query's graph: the unique maximal
// subgraph whose every edge has probability ≥ η of being supported by at
// least k−2 triangles within the subgraph. k below 2 wraps ErrKRange. The
// result preserves the graph's vertex set; only edges are removed.
// WithLimit does not apply (the truss is one subgraph, not a stream).
func (q *TrussQuery) Truss(ctx context.Context, k int) (tr *Graph, err error) {
	_, err = q.p.ten.admitted(ctx, q.cfg.Budget, func() (err error) {
		tr, _, err = utruss.TrussContext(ctx, q.g, k, q.eta, q.cfg)
		return err
	})
	return tr, err
}

// MaxTruss returns the largest k for which the (k,η)-truss is non-empty,
// or 0 for an edgeless graph.
func (q *TrussQuery) MaxTruss(ctx context.Context) (int, error) {
	full := q.p
	full.limit = 0
	stats, err := full.run(ctx, nil)
	if err != nil {
		return 0, err
	}
	return stats.MaxTruss, nil
}

// --- Core queries ---

// CoreVisitor receives one vertex with its final η-core number, in peel
// order; returning false stops the decomposition early.
type CoreVisitor = ucore.Visitor

// CoreStats reports the work performed by a core decomposition run.
type CoreStats = ucore.Stats

// VertexCore reports the η-core number of one vertex.
type VertexCore = ucore.VertexCore

// CoreQuery is a prepared (k,η)-core decomposition of one uncertain graph
// at one confidence threshold η. Build it with NewCoreQuery; it is
// immutable after construction and safe for concurrent use. The min-peeling
// polls its context between η-degree recomputations, so cancellation,
// deadlines, and WithBudget bounds abort mid-decomposition.
type CoreQuery struct {
	p   prepared[VertexCore, CoreStats]
	g   *Graph
	eta float64
	cfg ucore.Config
}

// NewCoreQuery prepares the η-core decomposition of g. It validates
// eagerly: a nil graph wraps ErrNilGraph, an eta outside (0,1] wraps
// ErrEtaRange. Applicable options: WithLimit, WithBudget.
func NewCoreQuery(g *Graph, eta float64, opts ...Option) (*CoreQuery, error) {
	o, p, err := prepare[VertexCore, CoreStats](kindCore, opts)
	if err != nil {
		return nil, err
	}
	return newCoreQuery(g, eta, ucore.Config{Budget: o.cfg.Budget, Stall: o.stall}, p)
}

// newCoreQuery is the single constructor behind NewCoreQuery and the
// deprecated wrappers: it validates the engine config and installs the
// core family adapter. As for trusses, sharding changes only stream order
// (per-component peel order), never the vertex→core assignment or the
// folded degeneracy.
func newCoreQuery(g *Graph, eta float64, cfg ucore.Config, p prepared[VertexCore, CoreStats]) (*CoreQuery, error) {
	if err := ucore.Validate(g, eta, cfg); err != nil {
		return nil, err
	}
	mineOn := func(ctx context.Context, g *Graph, budget int64, visit func(VertexCore) bool) (CoreStats, error) {
		c := cfg
		c.Budget = budget
		return ucore.RunContext(ctx, g, eta, c, visit)
	}
	p.budget = cfg.Budget
	p.fam = family[VertexCore, CoreStats]{
		mine: func(ctx context.Context, visit func(VertexCore) bool) (CoreStats, error) {
			return mineOn(ctx, g, cfg.Budget, visit)
		},
		parts: componentParts(g, mineOn, func(vc VertexCore, newToOld []int) VertexCore {
			return VertexCore{V: newToOld[vc.V], Core: vc.Core}
		}),
		numParts: g.NumComponents,
		fold: func(agg *CoreStats, s CoreStats) int64 {
			agg.Recomputes += s.Recomputes
			agg.Emitted += s.Emitted
			agg.Degeneracy = max(agg.Degeneracy, s.Degeneracy)
			return s.Recomputes
		},
		tally: func(s *CoreStats) (*RunStatus, *int64) { return &s.Status, &s.Emitted },
		sort: func(out []VertexCore) {
			sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
		},
	}
	return &CoreQuery{p: p, g: g, eta: eta, cfg: cfg}, nil
}

// Run performs the decomposition, streaming every vertex with its final
// η-core number to visit in peel order (visit may be nil to only count;
// see CoreStats.Emitted). The error contract matches Query.Run.
func (q *CoreQuery) Run(ctx context.Context, visit CoreVisitor) (CoreStats, error) {
	return q.p.run(ctx, visit)
}

// Collect returns the full decomposition — every vertex with its η-core
// number — sorted by vertex ID.
func (q *CoreQuery) Collect(ctx context.Context) ([]VertexCore, error) {
	return q.p.collect(ctx)
}

// Count returns the number of vertices the decomposition assigns a core
// number (the graph's vertex count on a complete run, fewer under
// WithLimit).
func (q *CoreQuery) Count(ctx context.Context) (int64, error) {
	return q.p.count(ctx)
}

// Stream returns the decomposition as a range-over-func stream in peel
// order (non-decreasing core number), with the same contract as
// Query.Cliques: each vertex is yielded with a nil error, an aborted run
// ends with one final (VertexCore{}, err) pair, and breaking the loop stops
// the peeling on the spot with nothing leaked.
func (q *CoreQuery) Stream(ctx context.Context) iter.Seq2[VertexCore, error] {
	return q.p.stream(ctx)
}

// Decompose returns the decomposition in its classical form: per-vertex
// core numbers, the degeneracy, and the peel order. WithLimit does not
// apply — the arrays are only meaningful complete.
func (q *CoreQuery) Decompose(ctx context.Context) (dec CoreDecomposition, err error) {
	_, err = q.p.ten.admitted(ctx, q.cfg.Budget, func() (err error) {
		dec, _, err = ucore.DecomposeContext(ctx, q.g, q.eta, q.cfg)
		return err
	})
	return dec, err
}

// Core returns the vertices of the (k,η)-core: the maximal induced
// subgraph where every vertex keeps η-degree ≥ k within it. Negative k
// wraps ErrKRange. WithLimit does not apply.
func (q *CoreQuery) Core(ctx context.Context, k int) (verts []int, err error) {
	_, err = q.p.ten.admitted(ctx, q.cfg.Budget, func() (err error) {
		verts, _, err = ucore.CoreContext(ctx, q.g, k, q.eta, q.cfg)
		return err
	})
	return verts, err
}
