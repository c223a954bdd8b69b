package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// cli-text: the mule binary, serial, on a Barabási–Albert graph in .ug text,
// full clique listing to a file that the harness then checks.
const (
	cliVertices = 250_000
	cliAttach   = 5
	cliAlpha    = 0.001
	setupReps   = 5 // set-up runs per benchmark run; setup_s is their median
	minOps      = 3 // fewest measured ops a run makes, so op_s is a median
)

// genCLIGraph writes the cli-text input: edges in (u, v) order, the order
// graphio.WriteText emits.
func genCLIGraph(seed int64, path string) error {
	g := genBA(rand.New(rand.NewSource(seed)), cliVertices, cliAttach)
	// Arrival order lists v ascending; a stable counting sort by u yields
	// (u, v) order in linear time.
	start := make([]int, g.n+1)
	for _, e := range g.edges {
		start[e.u+1]++
	}
	for i := 1; i <= g.n; i++ {
		start[i] += start[i-1]
	}
	sorted := make([]edge, len(g.edges))
	for _, e := range g.edges {
		sorted[start[e.u]] = e
		start[e.u]++
	}
	g.edges = sorted
	return writeGraphText(path, g)
}

func runCLIText(cfg config) (outcome, error) {
	input := filepath.Join(cfg.work, "ba.ug")
	outPath := filepath.Join(cfg.work, "mule.out")
	defer os.Remove(outPath)

	var g *mule.Graph
	var setups []float64
	for i := 0; i < setupReps; i++ {
		g = nil
		runtime.GC()
		var err error
		setups = append(setups, timed(func() {
			if err = genCLIGraph(cfg.seed, input); err != nil {
				return
			}
			g, err = graphio.LoadFile(input)
		}))
		if err != nil {
			return outcome{}, err
		}
	}

	// Reference answer: Query.Collect in process, probabilities rounded the
	// way mule prints them.
	q, err := mule.NewQuery(g, cliAlpha)
	if err != nil {
		return outcome{}, err
	}
	cliques, err := q.Collect(context.Background())
	if err != nil {
		return outcome{}, err
	}
	var ref digest
	for _, c := range cliques {
		ref.add(cliqueHash(c.Vertices, round9(c.Prob)))
	}
	g, cliques, q = nil, nil, nil
	debug.FreeOSMemory()
	out := outcome{correct: checkGolden(cfg, "cli-text", map[string]digest{"cliques": ref})}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	args := []string{"-in", input, "-alpha", "0.001", "-quiet"}
	var rss float64
	series := opLoop(cfg, tr, &out, "cli-text", func() (wall, cpu float64, err error) {
		var cpuTime time.Duration
		var rssMB float64
		wall, cpuTime, rssMB, err = runMule(cfg, outPath, args...)
		rss = max(rss, rssMB)
		return wall, cpuTime.Seconds(), err
	}, func() error {
		got, err := muleOutputDigest(outPath)
		if err == nil && got != ref {
			err = fmt.Errorf("output %s, want %s", got, ref)
		}
		return err
	})

	if !cfg.trace {
		out.values = map[string]float64{
			"setup_s":       median(setups),
			"op_s":          median(series.walls),
			"cpu_ms_per_op": median(series.cpus) * 1000,
			"peak_rss_mb":   rss,
		}
		return out, nil
	}
	out.values, err = libraryLayers(cfg, tr, series, input, cliAlpha, 1)
	return out, err
}
