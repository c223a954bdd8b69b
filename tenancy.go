package mule

import (
	"context"
	"fmt"

	"github.com/uncertain-graphs/mule/internal/exec"
)

// Executor is a shared scheduling domain: a fixed pool of worker goroutines
// that runs the parallel search of every query submitted to it, plus the
// admission-control state that rations those queries per tenant. One
// process-wide Executor (see DefaultExecutor) serves the common case of many
// concurrent small queries — frames from different queries interleave on the
// same workers without stats bleed, and scratch memory (candidate-set arenas,
// bitset row mirrors) cycles through size-classed pools instead of being
// reallocated per run.
//
// Build private domains with NewExecutor when isolation matters (tests,
// latency-sensitive tenants). An Executor is safe for concurrent use; all
// methods may be called at any time, including while queries run.
type Executor struct {
	x *exec.Executor
}

// NewExecutor creates a private scheduling domain with the given number of
// pool workers (values below 1 are clamped to 1). Queries attach to it with
// WithExecutor. Call Close when no further queries will be submitted;
// abandoning an Executor without Close leaks its worker goroutines.
func NewExecutor(workers int) *Executor {
	return &Executor{x: exec.New(workers)}
}

// DefaultExecutor returns the process-wide Executor, created on first use
// with one worker per GOMAXPROCS. Queries that never call WithExecutor run
// here; limits installed on it apply to every such query that names a
// tenant. It is never closed.
func DefaultExecutor() *Executor {
	return &Executor{x: exec.Default()}
}

// Close stops the Executor's worker pool. Queries still in flight complete
// (their submitting goroutines finish the queued work themselves), but new
// parallel work is no longer picked up by pool workers, and queries queued
// for admission — or arriving after — fail with a wrapped ErrAdmission
// instead of waiting forever. Close is idempotent and safe to call
// concurrently. Closing the DefaultExecutor is a no-op contractually
// reserved — don't.
func (e *Executor) Close() { e.x.Close() }

// Limits caps one tenant's concurrent load on an Executor: MaxInFlight
// bounds admitted queries running at once, MaxQueued bounds how many
// over-cap queries may wait (FIFO) before rejection, and MaxBudget caps the
// sum of admitted queries' WithBudget node budgets. The zero value means
// unlimited. See Executor.SetTenantLimits.
type Limits = exec.Limits

// AdmissionStats is a snapshot of an Executor's admission accounting:
// admitted/rejected/queued counters — rejections broken out by cause
// (in-flight cap, full queue, budget cap, executor closed) — retry
// accounting, and per-tenant in-flight and high-water marks. See
// Executor.AdmissionStats.
type AdmissionStats = exec.AdmissionStats

// RetryPolicy retries admission rejections (ErrAdmission) with jittered
// exponential backoff before surfacing them. Attempt n sleeps
// min(MaxDelay, BaseDelay·2^(n−1)), dithered downward by Jitter ∈ [0, 1] —
// every delay stays within [BaseDelay, MaxDelay] — and context cancellation
// always wins over a pending sleep. The zero value (or MaxAttempts < 2)
// disables retrying. Attach it to a query with WithRetry.
type RetryPolicy = exec.RetryPolicy

// SetTenantLimits installs per-tenant admission limits, replacing any
// previous value for that tenant. Queries already queued for admission are
// re-evaluated as capacity frees up.
func (e *Executor) SetTenantLimits(tenant string, l Limits) { e.x.SetLimits(tenant, l) }

// SetDefaultLimits installs the limits applied to tenants without an
// explicit SetTenantLimits entry — including the empty tenant, which gates
// queries built with WithExecutor but no WithTenant.
func (e *Executor) SetDefaultLimits(l Limits) { e.x.SetDefaultLimits(l) }

// AdmissionStats snapshots the Executor's admission accounting.
func (e *Executor) AdmissionStats() AdmissionStats { return e.x.AdmissionStats() }

// WithExecutor attaches the query to ex: its parallel search runs on ex's
// worker pool and its runs pass through ex's admission control. A nil ex is
// rejected by the constructor with a wrapped ErrConfig. Without this option
// a query uses the process-wide DefaultExecutor — but only passes admission
// control when WithTenant names it (an unattached, untenanted query has
// nothing to account against).
func WithExecutor(ex *Executor) Option {
	return Option{"WithExecutor", kindAll, func(o *queryOptions) { o.ex = ex; o.exSet = true }}
}

// WithTenant tags the query's runs with a tenant ID for admission control:
// each run counts against the tenant's Limits on the query's Executor (the
// DefaultExecutor when WithExecutor is absent), and over-cap runs queue or
// fail with a wrapped ErrAdmission per the queue-or-reject policy. The empty
// ID is rejected by the constructor with a wrapped ErrConfig — it is the
// "no tenant" value and cannot be asked for explicitly.
func WithTenant(id string) Option {
	return Option{"WithTenant", kindAll, func(o *queryOptions) { o.tenant = id; o.tenantSet = true }}
}

// WithRetry retries this query's admission rejections under p instead of
// failing the run on the first ErrAdmission: each rejected attempt backs off
// (jittered exponential, see RetryPolicy) and re-enters admission, up to
// p.MaxAttempts total attempts. Exhaustion still surfaces a wrapped
// ErrAdmission; a context fired during a backoff sleep surfaces the context
// error. The constructor rejects malformed policies (negative fields, Jitter
// outside [0, 1], MaxDelay below BaseDelay) with a wrapped ErrConfig. The
// option only matters for queries subject to admission — one with neither
// WithExecutor nor WithTenant never sees a rejection.
func WithRetry(p RetryPolicy) Option {
	return Option{"WithRetry", kindAll, func(o *queryOptions) { o.retry = p; o.retrySet = true }}
}

// tenancy is the executor/tenant/retry triple every prepared query embeds;
// the zero value (no executor, no tenant) bypasses admission entirely.
type tenancy struct {
	ex     *Executor
	tenant string
	retry  RetryPolicy
}

// validateTenancy applies the constructor-time option contract shared by all
// seven query surfaces: WithExecutor(nil), WithTenant(""), and a malformed
// WithRetry policy are programming errors reported eagerly, not silent
// no-ops at run time.
func (o *queryOptions) validateTenancy() (tenancy, error) {
	if o.exSet && o.ex == nil {
		return tenancy{}, fmt.Errorf("mule: WithExecutor(nil): %w", ErrConfig)
	}
	if o.tenantSet && o.tenant == "" {
		return tenancy{}, fmt.Errorf("mule: WithTenant(\"\") names the empty tenant: %w", ErrConfig)
	}
	if o.retrySet {
		p := o.retry
		if p.MaxAttempts < 0 {
			return tenancy{}, fmt.Errorf("mule: WithRetry: negative MaxAttempts %d: %w", p.MaxAttempts, ErrConfig)
		}
		if p.BaseDelay < 0 {
			return tenancy{}, fmt.Errorf("mule: WithRetry: negative BaseDelay %v: %w", p.BaseDelay, ErrConfig)
		}
		if p.MaxDelay < 0 {
			return tenancy{}, fmt.Errorf("mule: WithRetry: negative MaxDelay %v: %w", p.MaxDelay, ErrConfig)
		}
		if p.MaxDelay > 0 && p.MaxDelay < p.BaseDelay {
			return tenancy{}, fmt.Errorf("mule: WithRetry: MaxDelay %v below BaseDelay %v: %w", p.MaxDelay, p.BaseDelay, ErrConfig)
		}
		if p.Jitter < 0 || p.Jitter > 1 {
			return tenancy{}, fmt.Errorf("mule: WithRetry: Jitter %v outside [0,1]: %w", p.Jitter, ErrConfig)
		}
	}
	return tenancy{ex: o.ex, tenant: o.tenant, retry: o.retry}, nil
}

// engineExec returns the executor the core engines should submit frames to,
// nil meaning "the process default, resolved lazily by the engine layer".
func (t tenancy) engineExec() *exec.Executor {
	if t.ex != nil {
		return t.ex.x
	}
	return nil
}

// admitted runs fn as one admitted, panic-contained run. Queries with
// neither an executor nor a tenant skip admission at zero cost; a tenant
// without an executor is accounted on the DefaultExecutor. A rejection —
// after any WithRetry backoff — wraps ErrAdmission (or the context error,
// for cancel-while-queued) and fn never runs; otherwise the admission slot
// is released when fn returns. admitted reports whether fn ran.
func (t tenancy) admitted(ctx context.Context, budget int64, fn func() error) (ran bool, err error) {
	err = contain(func() error {
		if t.ex != nil || t.tenant != "" {
			x := t.engineExec()
			if x == nil {
				x = exec.Default()
			}
			release, err := x.AdmitWithRetry(ctx, t.tenant, budget, t.retry)
			if err != nil {
				return fmt.Errorf("mule: %w", err)
			}
			defer release()
		}
		ran = true
		return fn()
	})
	return ran, err
}
