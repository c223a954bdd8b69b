package main

// Seeded input generators. They live here, not in internal/gen, so that no
// change to the program can move the benchmark's inputs: the same seed always
// yields the same graphs, update batches and request schedule.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
)

// edge is one probabilistic edge with u < v.
type edge struct {
	u, v int
	p    float64
}

// edgeList is a generated graph before it is written or built.
type edgeList struct {
	n     int
	edges []edge
}

// probMicros draws a probability uniform on (0,1] with six decimals, so the
// text form round-trips exactly and no probability rounds to zero.
func probMicros(rng *rand.Rand) float64 {
	return float64(1+rng.Intn(1_000_000)) / 1e6
}

func pairKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// genBA builds a Barabási–Albert graph: every arriving vertex attaches to m
// distinct earlier vertices chosen by preferential attachment. Edge
// probabilities are uniform on (0,1].
func genBA(rng *rand.Rand, n, m int) edgeList {
	ends := make([]int, 0, 2*n*m)
	edges := make([]edge, 0, n*m)
	targets := make([]int, 0, m)
	for v := m; v < n; v++ {
		targets = targets[:0]
		for len(targets) < m {
			var t int
			if len(ends) == 0 {
				t = len(targets) // the first arrival joins every seed vertex
			} else {
				t = ends[rng.Intn(len(ends))]
			}
			dup := false
			for _, x := range targets {
				dup = dup || x == t
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			edges = append(edges, edge{u: t, v: v, p: probMicros(rng)})
			ends = append(ends, t, v)
		}
	}
	return edgeList{n: n, edges: edges}
}

// genChungLu builds a power-law graph with exactly m edges: endpoints are
// drawn with probability proportional to expected-degree weights
// w_i ∝ (i+1)^(-1/(gamma-1)), self-loops and repeats are redrawn, and vertex
// labels are shuffled so IDs carry no rank information.
func genChungLu(rng *rand.Rand, n, m int, gamma float64) edgeList {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -1/(gamma-1))
		cum[i] = total
	}
	pick := func() int {
		return sort.SearchFloat64s(cum, rng.Float64()*total)
	}
	perm := rng.Perm(n)
	seen := make(map[uint64]struct{}, m)
	edges := make([]edge, 0, m)
	for len(edges) < m {
		u, v := pick(), pick()
		if u == v {
			continue
		}
		u, v = perm[u], perm[v]
		k := pairKey(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, edge{u: u, v: v, p: probMicros(rng)})
	}
	sortEdges(edges)
	return edgeList{n: n, edges: edges}
}

// sortEdges puts edges in (u, v) order, the order graphio.WriteText emits.
func sortEdges(edges []edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
}

// bipartiteList is a generated affinity graph: left vertices (e.g. users)
// joined to right vertices (e.g. items).
type bipartiteList struct {
	nLeft, nRight int
	edges         []edge // u on the left, v on the right
}

// genAffinity builds a bipartite affinity graph with m distinct edges: left
// endpoints uniform, right endpoints drawn with weight 1/√rank (some items
// are popular), probabilities uniform on (0,1].
func genAffinity(rng *rand.Rand, nLeft, nRight, m int) bipartiteList {
	cum := make([]float64, nRight)
	total := 0.0
	for i := range cum {
		total += 1 / math.Sqrt(float64(i+1))
		cum[i] = total
	}
	seen := make(map[uint64]struct{}, m)
	edges := make([]edge, 0, m)
	for len(edges) < m {
		l := rng.Intn(nLeft)
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		k := uint64(l)<<32 | uint64(r)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		edges = append(edges, edge{u: l, v: r, p: probMicros(rng)})
	}
	return bipartiteList{nLeft: nLeft, nRight: nRight, edges: edges}
}

// appendEdgeLine appends "u v p\n" in the graphio text format.
func appendEdgeLine(b []byte, e edge) []byte {
	b = strconv.AppendInt(b, int64(e.u), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.v), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, e.p, 'f', -1, 64)
	return append(b, '\n')
}

// writeGraphText writes g in the graphio text format ("vertices n" then one
// "u v p" line per edge).
func writeGraphText(path string, g edgeList) error {
	return writeLines(path, fmt.Sprintf("vertices %d\n", g.n), g.edges)
}

// writeBipartiteText writes g in the graphio bipartite text format.
func writeBipartiteText(path string, g bipartiteList) error {
	return writeLines(path, fmt.Sprintf("bipartite %d %d\n", g.nLeft, g.nRight), g.edges)
}

func writeLines(path, header string, edges []edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(header); err != nil {
		f.Close()
		return err
	}
	var line []byte
	for _, e := range edges {
		line = appendEdgeLine(line[:0], e)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
