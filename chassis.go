package mule

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime/debug"

	"github.com/uncertain-graphs/mule/internal/core"
)

// The prepared-query chassis. Every query kind — cliques, bicliques,
// quasi-cliques, trusses, cores, densest subgraphs, clusters — is a
// prepared[T, S] (T the result type, S the stats type) plus a family
// adapter supplying the only things that differ between miners: how to mine
// one graph, how to split it into components and map their results back,
// how to fold component stats, and how results are ordered. Option and
// tenancy validation, admission, panic containment, the WithLimit bound,
// the Run/Collect/Count/Stream contract, and the component-sharded driver
// (shard.go) live here once; each query type re-exports them as thin
// documented delegates with its own visitor and result types.

// prepared is the validated, immutable chassis state of one query.
type prepared[T, S any] struct {
	fam       family[T, S]
	budget    int64 // the family config's WithBudget bound (0 = none)
	limit     int64
	ten       tenancy
	shards    int // 0 = unsharded; see WithShards
	shardProg func(done, total int)
}

// family is a query kind's adapter to the chassis.
type family[T, S any] struct {
	// mine runs the engine over the query's whole graph, handing each
	// result to visit (nil: count only, so the engines skip the callback).
	mine func(ctx context.Context, visit func(T) bool) (S, error)
	// parts yields the graph's support components in ID order for a
	// sharded run; numParts counts them without materializing any. A nil
	// parts marks a whole-graph family: its answer spans components, so a
	// sharded run executes unsharded and reports a single shard.
	parts    iter.Seq[part[T, S]]
	numParts func() int
	// fold adds one component run's stats into agg and returns the budget
	// units that run spent.
	fold func(agg *S, s S) (spent int64)
	// tally points at a stats value's terminal status and emitted count.
	tally func(s *S) (*RunStatus, *int64)
	// global marks a merged family, whose answer needs the whole result
	// family before anything is reported: a sharded run mines every
	// component to completion, then global puts the combined results in
	// report order (scoring them first, if the family must). A nil global
	// marks a streamed family, delivered component by component.
	global func(ctx context.Context, all []T, agg *S) error
	// own returns a caller-owned copy of a delivered result, for families
	// whose engines reuse result buffers between visits (nil: results are
	// caller-owned already).
	own func(T) T
	// sort puts Collect's output in canonical order (nil: delivery order
	// already is).
	sort func([]T)
}

// part is one support component of a sharded run.
type part[T, S any] struct {
	id int
	// mine runs the family's engine on the component under budget (0 =
	// none), handing each result to visit in component vertex IDs.
	mine func(ctx context.Context, budget int64, visit func(T) bool) (S, error)
	// remap returns a component result in parent vertex IDs, owned by the
	// caller (copied out of any engine buffer it came in).
	remap func(T) T
}

// componentParts splits g into its support components for a sharded run:
// mine runs the family's engine on one component graph, and remap maps one
// of its results to parent vertex IDs through the component's newToOld
// table.
func componentParts[T, S any](g *Graph, mine func(ctx context.Context, g *Graph, budget int64, visit func(T) bool) (S, error), remap func(v T, newToOld []int) T) iter.Seq[part[T, S]] {
	return func(yield func(part[T, S]) bool) {
		for sh := range g.ShardByComponent() {
			if !yield(part[T, S]{
				id: sh.ID,
				mine: func(ctx context.Context, budget int64, visit func(T) bool) (S, error) {
					return mine(ctx, sh.G, budget, visit)
				},
				remap: func(v T) T { return remap(v, sh.NewToOld) },
			}) {
				return
			}
		}
	}
}

// remapIDs rewrites component vertex IDs to parent IDs in place and returns
// vs. Shard tables are ascending, so sorted sets stay sorted.
func remapIDs(vs, newToOld []int) []int {
	for i, v := range vs {
		vs[i] = newToOld[v]
	}
	return vs
}

// prepare applies opts for one query kind and validates everything the
// chassis owns, in the order every constructor reports violations: option
// scope, tenancy, shard plan, the WithLimit bound. The caller validates its
// family config next, then installs the budget and the family adapter.
func prepare[T, S any](kind queryKind, opts []Option) (queryOptions, prepared[T, S], error) {
	var p prepared[T, S]
	o, err := applyOptions(kind, opts)
	if err != nil {
		return o, p, err
	}
	if p.ten, err = o.validateTenancy(); err != nil {
		return o, p, err
	}
	if p.shards, err = o.shardPlan(); err != nil {
		return o, p, err
	}
	if o.limit < 0 {
		return o, p, fmt.Errorf("mule: negative limit %d: %w", o.limit, ErrConfig)
	}
	p.limit, p.shardProg = o.limit, o.shardProgress
	return o, p, nil
}

// contain runs fn, converting a panic anywhere below it — an engine, a
// visitor, a result remap — into a wrapped ErrPanic. It is the query
// layer's one panic boundary: every run method and every shard task passes
// through it.
func contain(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicToError(v)
		}
	}()
	return fn()
}

// panicToError converts a value recovered at the query layer into the
// wrapped *PanicError the clique engines produce at theirs, so every surface
// reports panics identically. A re-thrown *PanicError passes through
// unchanged.
func panicToError(v any) error {
	if pe, ok := v.(*PanicError); ok {
		return fmt.Errorf("mule: run aborted: %w", pe)
	}
	return fmt.Errorf("mule: run aborted: %w", core.NewPanicError(v, debug.Stack()))
}

// execute runs the query once under its WithLimit bound, reporting whether
// the user's visitor (as opposed to the limit) ended the run. A rejected
// admission reports StatusFailed, a contained panic StatusPanicked.
func (p *prepared[T, S]) execute(ctx context.Context, visit func(T) bool) (stats S, userStopped bool, err error) {
	ran, err := p.ten.admitted(ctx, p.budget, func() (err error) {
		if p.shards != 0 && p.fam.parts != nil {
			stats, userStopped, err = p.runSharded(ctx, visit)
			return err
		}
		// A whole-graph family runs a sharded query as one shard.
		oneShard := p.shards != 0 && p.shardProg != nil
		if oneShard {
			p.shardProg(0, 1)
		}
		stats, err = p.fam.mine(ctx, limitVisitor(visit, p.limit, &userStopped))
		if oneShard && err == nil {
			p.shardProg(1, 1)
		}
		return err
	})
	if err != nil {
		status, _ := p.fam.tally(&stats)
		switch {
		case !ran:
			*status = StatusFailed
		case errors.Is(err, ErrPanic):
			*status = StatusPanicked
		}
	}
	return stats, userStopped, err
}

// limitVisitor wraps visit with the WithLimit bound, reporting through
// userStopped whether the user's visitor (as opposed to the limit) ended
// the run. A nil visit with no limit stays nil so the engines skip the
// callback entirely.
func limitVisitor[T any](visit func(T) bool, limit int64, userStopped *bool) func(T) bool {
	if limit > 0 {
		remaining := limit
		return func(v T) bool {
			if visit != nil && !visit(v) {
				*userStopped = true
				return false
			}
			remaining--
			return remaining > 0
		}
	}
	if visit == nil {
		return nil
	}
	return func(v T) bool {
		if !visit(v) {
			*userStopped = true
			return false
		}
		return true
	}
}

// run is the body of every query type's Run: err == nil means the run
// completed or reached its WithLimit bound, and a visitor that stopped it
// early surfaces as a wrapped ErrStopped.
func (p *prepared[T, S]) run(ctx context.Context, visit func(T) bool) (S, error) {
	stats, userStopped, err := p.execute(ctx, visit)
	if err == nil && userStopped {
		err = fmt.Errorf("mule: %w", ErrStopped)
	}
	return stats, err
}

// collect is the body of every query type's Collect: all results,
// caller-owned, in canonical order.
func (p *prepared[T, S]) collect(ctx context.Context) ([]T, error) {
	var out []T
	_, _, err := p.execute(ctx, func(v T) bool {
		out = append(out, p.owned(v))
		return true
	})
	if err != nil {
		return nil, err
	}
	if p.fam.sort != nil {
		p.fam.sort(out)
	}
	return out, nil
}

// count is the body of every query type's Count.
func (p *prepared[T, S]) count(ctx context.Context) (int64, error) {
	stats, err := p.run(ctx, nil)
	_, emitted := p.fam.tally(&stats)
	return *emitted, err
}

// stream is the body of every query type's Stream (and of a serial
// Query.Cliques): results are yielded with a nil error as the engine
// delivers them, an aborted run ends the stream with one final (zero, err)
// pair, and a consumer break makes the visitor return false, so the engine
// stops on the spot.
func (p *prepared[T, S]) stream(ctx context.Context) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		consumerDone := false
		_, _, err := p.execute(ctx, func(v T) bool {
			if !yield(p.owned(v), nil) {
				consumerDone = true
				return false
			}
			return true
		})
		if err != nil && !consumerDone {
			var zero T
			yield(zero, err)
		}
	}
}

// owned returns v as a caller-owned value.
func (p *prepared[T, S]) owned(v T) T {
	if p.fam.own != nil {
		return p.fam.own(v)
	}
	return v
}
