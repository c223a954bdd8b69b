package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	mule "github.com/uncertain-graphs/mule"
)

// Snapshot is one immutable, epoch-stamped version of a named graph. Query
// runs resolve a snapshot once and use it for their whole lifetime: an
// Apply that commits while they run swaps the entry's snapshot pointer
// without touching theirs, so in-flight queries keep reading epoch N while
// new arrivals see N+1. Exactly one of Graph and Bipartite is non-nil.
type Snapshot struct {
	Epoch     uint64
	Graph     *mule.Graph
	Bipartite *mule.Bipartite
}

// Vertices returns the snapshot's vertex count (both sides for bipartite).
func (s *Snapshot) Vertices() int {
	if s.Bipartite != nil {
		return s.Bipartite.NumLeft() + s.Bipartite.NumRight()
	}
	return s.Graph.NumVertices()
}

// Edges returns the snapshot's edge count.
func (s *Snapshot) Edges() int {
	if s.Bipartite != nil {
		return s.Bipartite.NumEdges()
	}
	return s.Graph.NumEdges()
}

// Kind names the snapshot's graph kind for listings.
func (s *Snapshot) Kind() string {
	if s.Bipartite != nil {
		return "bipartite"
	}
	return "graph"
}

// entry is one named graph: an atomically swappable snapshot for readers
// plus the writer-side state — the incremental clique maintainer — guarded
// by mu. Writers (Apply) serialize on mu; readers never take it.
type entry struct {
	name string
	snap atomic.Pointer[Snapshot]

	mu sync.Mutex
	// maint is the incremental maintainer behind Apply, built lazily on the
	// first update batch (seeding it runs a full enumeration — load stays
	// cheap for graphs that are never mutated). Guarded by mu.
	maint *mule.Maintainer
}

// snapshot returns the entry's current snapshot; never nil.
func (e *entry) snapshot() *Snapshot { return e.snap.Load() }

// registry maps graph names to entries. Epochs for every entry come from
// the shared counter, so they are unique server-wide and monotonically
// increasing — a cache key (name, epoch, …) can never alias across loads,
// reloads, or updates.
type registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	epoch   atomic.Uint64
}

func newRegistry() *registry {
	return &registry{entries: make(map[string]*entry)}
}

func (r *registry) nextEpoch() uint64 { return r.epoch.Add(1) }

// install publishes a freshly loaded snapshot under name, replacing any
// previous entry wholesale (its maintainer included — the new graph starts
// unmaintained).
func (r *registry) install(name string, snap *Snapshot) {
	e := &entry{name: name}
	e.snap.Store(snap)
	r.mu.Lock()
	r.entries[name] = e
	r.mu.Unlock()
}

func (r *registry) get(name string) *entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[name]
}

func (r *registry) delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return false
	}
	delete(r.entries, name)
	return true
}

// list returns the entries sorted by name.
func (r *registry) list() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// apply runs one edge-update batch through the entry's maintainer and, if
// anything committed, publishes a copy-on-write snapshot under a fresh
// epoch. The maintainer commits update-by-update, so on a mid-batch error
// (context fired, invalid update) the committed prefix is still consistent
// and still published; the returned epoch is the entry's current one either
// way. alpha seeds the maintainer on the entry's first batch; later
// batches keep the seeded α, and one that names a different α explicitly
// (alphaSet) is rejected with a wrapped ErrConfig before any update
// applies.
func (e *entry) apply(ctx context.Context, r *registry, batch []mule.EdgeUpdate, alpha float64, alphaSet bool) (mule.CliqueDiff, mule.MaintainerStats, uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snapshot()
	if snap.Bipartite != nil {
		return mule.CliqueDiff{}, mule.MaintainerStats{}, snap.Epoch,
			fmt.Errorf("graph %q is bipartite; updates apply to regular graphs only: %w", e.name, mule.ErrConfig)
	}
	if e.maint != nil && alphaSet && alpha != e.maint.Alpha() {
		return mule.CliqueDiff{}, mule.MaintainerStats{}, snap.Epoch,
			fmt.Errorf("graph %q is maintained at alpha %v, not %v: %w", e.name, e.maint.Alpha(), alpha, mule.ErrConfig)
	}
	if e.maint == nil {
		m, err := mule.NewMaintainerContext(ctx, snap.Graph, alpha)
		if err != nil {
			return mule.CliqueDiff{}, mule.MaintainerStats{}, snap.Epoch, err
		}
		e.maint = m
	}
	diff, stats, err := e.maint.Apply(ctx, batch)
	if stats.Updates > 0 || err == nil {
		// Copy-on-write: materialize the maintainer's graph into a fresh
		// immutable snapshot and swap it in under a new epoch. Readers that
		// resolved the old pointer keep it; the old snapshot is garbage once
		// they finish.
		next := &Snapshot{Epoch: r.nextEpoch(), Graph: e.maint.Graph()}
		e.snap.Store(next)
		return diff, stats, next.Epoch, err
	}
	return diff, stats, snap.Epoch, err
}
