package uncertain

import (
	"fmt"
	"math"
	"slices"
)

// EdgeScan feeds a stream of probabilistic edges to emit, one call per edge,
// and returns the graph's vertex count (declared by the input, or inferred by
// the producer as max endpoint + 1). An error returned by emit must be
// propagated back unchanged.
//
// The scan must be replayable: FromEdgeScanner invokes it twice — a counting
// pass and a fill pass — and both invocations must produce the same edges in
// the same order and report the same vertex count. File-backed scanners
// replay by re-reading the file; in-memory scanners replay a buffered edge
// list.
type EdgeScan func(emit func(u, v int, p float64) error) (n int, err error)

// errUnstableScan reports an EdgeScan whose two passes disagreed.
func errUnstableScan() error {
	return fmt.Errorf("uncertain: edge scanner is not replayable: passes disagree")
}

// FromEdgeScanner builds a Graph directly into its final CSR form from a
// replayable edge stream, without materializing an edge list or a Builder
// hash map: the first pass validates each edge and counts per-vertex degrees,
// the second fills the adjacency arrays in place. Peak memory beyond the
// finished CSR is one int32 per vertex. Duplicate edges are detected after
// the per-row sort (adjacent equal neighbors) and reported as a wrapped
// ErrDuplicateEdge, matching Builder.AddEdge semantics.
func FromEdgeScanner(scan EdgeScan) (*Graph, error) {
	// Pass 1: validate endpoints and probabilities, count degrees. The degree
	// array grows with the largest endpoint seen; the scanner's vertex count
	// (unknown until the pass completes) extends it afterwards, so declared
	// isolated vertices cost nothing during the scan.
	var deg []int32
	edges := int64(0)
	maxV := -1
	n, err := scan(func(u, v int, p float64) error {
		if u == v {
			return fmt.Errorf("uncertain: edge {%d,%d}: %w", u, v, ErrSelfLoop)
		}
		if u < 0 || v < 0 {
			return fmt.Errorf("uncertain: edge {%d,%d}: negative endpoint: %w", u, v, ErrVertexRange)
		}
		if err := validProb(p); err != nil {
			return err
		}
		hi := u
		if v > hi {
			hi = v
		}
		if hi > maxV {
			maxV = hi
		}
		if hi >= len(deg) {
			// Grow geometrically, so edges arriving in endpoint order cost
			// O(log n) reallocations, not one per new endpoint. Capacity
			// past len is never written, so it is still zero.
			deg = slices.Grow(deg, hi+1-len(deg))[:hi+1]
		}
		deg[u]++
		deg[v]++
		edges++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxV + 1
	}
	if maxV >= n {
		return nil, fmt.Errorf("uncertain: edge endpoint %d outside [0,%d): %w", maxV, n, ErrVertexRange)
	}
	if 2*edges > math.MaxInt32 {
		return nil, fmt.Errorf("uncertain: %d edges exceed the CSR index range", edges)
	}
	if len(deg) < n {
		deg = slices.Grow(deg, n-len(deg))[:n]
	}

	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + deg[u]
	}
	nbrs := make([]int32, offsets[n])
	probs := make([]float64, offsets[n])

	// Pass 2: fill. deg doubles as the per-row fill cursor; the offsets
	// array bounds every write, so a scanner that emits different edges on
	// replay is caught instead of corrupting neighbor rows.
	for i := range deg {
		deg[i] = 0
	}
	edges2 := int64(0)
	n2, err := scan(func(u, v int, p float64) error {
		if u < 0 || u >= n || v < 0 || v >= n {
			return errUnstableScan()
		}
		iu := offsets[u] + deg[u]
		iv := offsets[v] + deg[v]
		if iu >= offsets[u+1] || iv >= offsets[v+1] {
			return errUnstableScan()
		}
		nbrs[iu], probs[iu] = int32(v), p
		deg[u]++
		nbrs[iv], probs[iv] = int32(u), p
		deg[v]++
		edges2++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n2 >= 0 && n2 != n {
		return nil, errUnstableScan()
	}
	if edges2 != edges {
		return nil, errUnstableScan()
	}

	g := &Graph{n: n, offsets: offsets, nbrs: nbrs, probs: probs}
	g.sortRows()
	for u := 0; u < n; u++ {
		row := nbrs[offsets[u]:offsets[u+1]]
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("uncertain: edge {%d,%d}: %w", u, row[i], ErrDuplicateEdge)
			}
		}
	}
	return g, nil
}
