package mule

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
)

// Component-sharded mining. No clique, biclique, quasi-clique, truss edge,
// or core vertex spans two support components, so every prepared query can
// be executed as one independent run per component over a small relabeled
// CSR, with results mapped back to parent vertex IDs. Sharding changes the
// execution shape, never the answer: the collected (canonical-order) result
// set, Count, MaxTruss, and the folded work counters' totals are identical
// to an unsharded run. What does change is stream order — a sharded Run or
// Stream delivers results component by component (components numbered by
// smallest member, matching Graph.Components), each component internally in
// its engine's order — and therefore which prefix a WithLimit bound keeps.
// The sharded order is itself deterministic for every shard count, so
// WithShards(1), WithShards(8), and WithAutoShard agree byte for byte.

// shardsAuto marks WithAutoShard in the configured shard count; it is
// resolved to runtime.GOMAXPROCS(0) when a run starts.
const shardsAuto = -1

// WithShards executes the query one support component at a time, up to n
// components concurrently (n = 1 is fully sequential). Each component is
// extracted as a self-contained relabeled CSR, mined as its own engine run
// — with per-component panic containment, so a poisoned component fails the
// run without taking down the process — and its results are mapped back and
// delivered on the calling goroutine in component order. At most roughly n
// component subgraphs are materialized at once, so a multi-component graph
// mines in memory proportional to its largest component, not its total
// size. n must be at least 1; anything else is a wrapped ErrConfig.
//
// WithBudget composes: the budget bounds the total work across all
// components, which forces the components to run sequentially so each can
// be handed what remains. Single-answer methods that are not streams
// (Query.Maximum, TrussQuery.Truss, CoreQuery.Decompose, CoreQuery.Core)
// ignore sharding and run on the whole graph.
func WithShards(n int) Option {
	return Option{"WithShards", kindAll, func(o *queryOptions) {
		o.shards, o.shardsSet, o.shardsAuto = n, true, false
	}}
}

// WithAutoShard is WithShards with the concurrency chosen at run time as
// runtime.GOMAXPROCS(0).
func WithAutoShard() Option {
	return Option{"WithAutoShard", kindAll, func(o *queryOptions) {
		o.shards, o.shardsSet, o.shardsAuto = 0, true, true
	}}
}

// WithShardProgress registers a callback for sharded runs: fn(0, total) is
// invoked once when the run starts (total is the graph's component count)
// and fn(done, total) after each component's results have been delivered,
// always on the run's calling goroutine. It requires WithShards or
// WithAutoShard; passing it alone is a wrapped ErrConfig.
func WithShardProgress(fn func(done, total int)) Option {
	return Option{"WithShardProgress", kindAll, func(o *queryOptions) { o.shardProgress = fn }}
}

// shardPlan validates the sharding options, returning the configured shard
// concurrency: 0 when unsharded, shardsAuto for WithAutoShard, else the
// WithShards value.
func (o *queryOptions) shardPlan() (int, error) {
	if !o.shardsSet {
		if o.shardProgress != nil {
			return 0, fmt.Errorf("mule: WithShardProgress requires WithShards or WithAutoShard: %w", ErrConfig)
		}
		return 0, nil
	}
	if o.shardsAuto {
		return shardsAuto, nil
	}
	if o.shards < 1 {
		return 0, fmt.Errorf("mule: WithShards requires at least one shard, got %d: %w", o.shards, ErrConfig)
	}
	return o.shards, nil
}

// statusForError maps a sharded run's terminal error to the RunStatus an
// unsharded engine would have recorded for the same cause.
func statusForError(err error) RunStatus {
	switch {
	case errors.Is(err, ErrPanic):
		return StatusPanicked
	case errors.Is(err, ErrBudget):
		return StatusBudget
	case errors.Is(err, ErrStalled):
		return StatusStalled
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusFailed
	}
}

// driveShards mines parts with at most conc in flight, calling deliver
// with each part's results in part-ID order on the calling goroutine. Part
// IDs must be consecutive from 0 in yield order (the contract of
// ShardByComponent). run executes inside the query layer's panic boundary,
// so a panic in one component's engine run or result remap becomes that
// part's error instead of unwinding the process. deliver returning false
// stops the run (a nil error outcome); a part error cancels the remaining
// parts and is returned — the lowest-ID error when several fail. Parts are
// pulled from the iterator lazily, so at most about conc+1 component
// subgraphs exist at any moment, and every goroutine is joined before the
// call returns on all paths, including a deliver panic.
func driveShards[T, S any](ctx context.Context, parts iter.Seq[part[T, S]], conc int, run func(context.Context, part[T, S]) ([]T, error), deliver func([]T) bool) error {
	runPart := func(ctx context.Context, pt part[T, S]) (out []T, err error) {
		err = contain(func() (err error) {
			out, err = run(ctx, pt)
			return err
		})
		return out, err
	}
	if conc <= 1 {
		for pt := range parts {
			out, err := runPart(ctx, pt)
			if err != nil {
				return err
			}
			if !deliver(out) {
				return nil
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	type result struct {
		id  int
		out []T
		err error
	}
	partCh := make(chan part[T, S])
	feederDone := make(chan struct{})
	go func() {
		// The feeder advances the shard iterator only when a worker is
		// ready, keeping the number of materialized component CSRs bounded.
		defer close(feederDone)
		defer close(partCh)
		for pt := range parts {
			select {
			case partCh <- pt:
			case <-cctx.Done():
				return
			}
		}
	}()
	resCh := make(chan result)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := range partCh {
				out, err := runPart(cctx, pt)
				select {
				case resCh <- result{pt.id, out, err}:
				case <-cctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()
	defer func() {
		// Join everything on every exit path (normal, error, deliver
		// panic): cancel unblocks the workers and feeder, draining resCh
		// waits out the workers, feederDone waits out the feeder.
		cancel()
		for range resCh {
		}
		<-feederDone
	}()

	// Reorder completions into part-ID order before delivery. IDs are
	// consecutive from 0, so a single cursor suffices.
	pending := make(map[int]result)
	next := 0
	var firstErr error
	stopped := false
	for r := range resCh {
		pending[r.id] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil || stopped {
				continue
			}
			if cur.err != nil {
				firstErr = cur.err
				cancel()
				continue
			}
			if !deliver(cur.out) {
				stopped = true
				cancel()
			}
		}
	}
	return firstErr
}

// shardDelivery is the delivery-side state of a sharded run: the visitor,
// the emitted counter, the WithLimit bound, the user-stop flag, and the
// progress callback. It lives on the run's calling goroutine.
type shardDelivery[T any] struct {
	visit       func(T) bool
	limit       int64
	delivered   int64
	userStopped bool
	done, total int
	progress    func(done, total int)
}

// emit counts one result before handing it to the visitor (a result that
// reaches the visitor is emitted even if it stops the run, matching every
// engine) and applies the WithLimit bound. It reports whether the run
// continues.
func (d *shardDelivery[T]) emit(v T) bool {
	d.delivered++
	if d.visit != nil && !d.visit(v) {
		d.userStopped = true
		return false
	}
	return d.limit <= 0 || d.delivered < d.limit
}

// shardDone fires the per-component progress callback.
func (d *shardDelivery[T]) shardDone() {
	d.done++
	if d.progress != nil {
		d.progress(d.done, d.total)
	}
}

// finish translates the run's outcome into its (status, error) pair:
// errors keep the cause's status, an early stop (user or limit) is
// StatusStopped, anything else completed.
func (d *shardDelivery[T]) finish(err error) (RunStatus, error) {
	if err != nil {
		return statusForError(err), err
	}
	if d.userStopped || (d.limit > 0 && d.delivered >= d.limit) {
		return StatusStopped, nil
	}
	return StatusComplete, nil
}

// runSharded executes a query component by component; see WithShards for
// the contract. Each component is mined as its own engine run, its stats
// folded into the aggregate under a lock (components run concurrently), its
// results remapped to parent vertex IDs. A streamed family then delivers
// each component's results in component order. A merged family mines
// every component to completion and reports the combined results after its
// global pass, so the report loop — and therefore WithLimit and visitor
// stops — behaves exactly like an unsharded run.
func (p *prepared[T, S]) runSharded(ctx context.Context, visit func(T) bool) (S, bool, error) {
	var (
		mu        sync.Mutex
		agg       S
		remaining = p.budget // written only on the sequential path
	)
	conc := p.shards
	switch {
	case p.budget > 0:
		conc = 1 // budget handoff needs each component's actual spend, in order
	case conc == shardsAuto:
		conc = runtime.GOMAXPROCS(0)
	}
	merged := p.fam.global != nil
	countOnly := !merged && visit == nil && p.limit <= 0

	mine := func(ctx context.Context, pt part[T, S]) ([]T, error) {
		budget := p.budget
		if budget > 0 {
			if remaining <= 0 {
				return nil, fmt.Errorf("mule: search budget exhausted before component %d: %w", pt.id, ErrBudget)
			}
			budget = remaining
		}
		var buf []T
		var keep func(T) bool
		if !countOnly {
			keep = func(v T) bool {
				buf = append(buf, pt.remap(v))
				// No component of a streamed run needs to yield more
				// results than the global limit keeps; stop its engine
				// there.
				return merged || p.limit <= 0 || int64(len(buf)) < p.limit
			}
		}
		s, err := pt.mine(ctx, budget, keep)
		mu.Lock()
		spent := p.fam.fold(&agg, s)
		mu.Unlock()
		if p.budget > 0 {
			remaining -= spent
		}
		return buf, err
	}

	d := shardDelivery[T]{visit: visit, limit: p.limit, progress: p.shardProg}
	if d.progress != nil {
		d.total = p.fam.numParts()
		d.progress(0, d.total)
	}
	var all []T
	err := driveShards(ctx, p.fam.parts, conc, mine, func(out []T) bool {
		if merged {
			all = append(all, out...)
		} else {
			for _, v := range out {
				if !d.emit(v) {
					return false
				}
			}
		}
		d.shardDone()
		return true
	})
	if merged && err == nil {
		if err = p.fam.global(ctx, all, &agg); err == nil {
			for _, v := range all {
				if !d.emit(v) {
					break
				}
			}
		}
	}
	status, emitted := p.fam.tally(&agg)
	*status, err = d.finish(err)
	if !countOnly {
		*emitted = d.delivered
	}
	return agg, d.userStopped, err
}
