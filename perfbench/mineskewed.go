package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"

	mule "github.com/uncertain-graphs/mule"
)

// mine-skewed: the library in process, mule.NewQuery(g, 0.01,
// WithWorkers(2)).Run with a counting and checksumming visitor, on a
// Chung–Lu power-law graph shaped like wiki-vote.
const (
	skewVertices = 7118
	skewEdges    = 103_689
	skewExponent = 2.1
	skewAlpha    = 0.01
	skewWorkers  = 2
	skewSetups   = 5 // set-up is cheap, so take more samples of it
)

func genSkewGraph(seed int64) (edgeList, *mule.Graph, error) {
	el := genChungLu(rand.New(rand.NewSource(seed)), skewVertices, skewEdges, skewExponent)
	es := make([]mule.Edge, len(el.edges))
	for i, e := range el.edges {
		es[i] = mule.Edge{U: e.u, V: e.v, P: e.p}
	}
	g, err := mule.FromEdges(el.n, es)
	return el, g, err
}

// runDigest runs q with a visitor that counts and checksums every clique.
func runDigest(q *mule.Query) (digest, mule.Stats, error) {
	var d digest
	st, err := q.Run(context.Background(), func(c []int, p float64) bool {
		d.add(cliqueHash(c, p))
		return true
	})
	return d, st, err
}

func runMineSkewed(cfg config) (outcome, error) {
	var el edgeList
	var g *mule.Graph
	var setups []float64
	for i := 0; i < skewSetups; i++ {
		g = nil
		runtime.GC()
		var err error
		setups = append(setups, timed(func() { el, g, err = genSkewGraph(cfg.seed) }))
		if err != nil {
			return outcome{}, err
		}
	}

	// Reference answer: the serial engine with the same visitor.
	serialQ, err := mule.NewQuery(g, skewAlpha)
	if err != nil {
		return outcome{}, err
	}
	ref, _, err := runDigest(serialQ)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{correct: checkGolden(cfg, "mine-skewed", map[string]digest{"cliques": ref})}

	q, err := mule.NewQuery(g, skewAlpha, mule.WithWorkers(skewWorkers))
	if err != nil {
		return outcome{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var got digest
	series := opLoop(cfg, tr, &out, "mine-skewed", func() (wall, cpu float64, err error) {
		cpu0 := selfCPU()
		wall = timed(func() { got, _, err = runDigest(q) })
		return wall, (selfCPU() - cpu0).Seconds(), err
	}, func() error {
		if got != ref {
			return fmt.Errorf("answer %s, want %s", got, ref)
		}
		return nil
	})

	if !cfg.trace {
		rss, err := vmHWM("self")
		if err != nil {
			return out, err
		}
		out.values = map[string]float64{
			"setup_s":       median(setups),
			"op_s":          median(series.walls),
			"cpu_ms_per_op": median(series.cpus) * 1000,
			"peak_rss_mb":   rss,
		}
		return out, nil
	}
	// The layer pass reads a text file, so write the graph out first.
	file := filepath.Join(cfg.work, "skew.ug")
	if err := writeGraphText(file, el); err != nil {
		return out, err
	}
	out.values, err = libraryLayers(cfg, tr, series, file, skewAlpha, skewWorkers)
	return out, err
}
