package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Per-layer metrics that only serve-mixed exercises; the other workloads
// report them as 0.
var serveOnlyLayers = []string{
	"server.http_ms", "server.hit_bytes", "server.cache_hit_ratio", "server.cache_evictions",
	"server.warm_completed", "server.warm_skipped",
	"server.hit_p50_ms", "server.hit_p99_ms", "server.miss_p50_ms", "server.miss_p90_ms",
	"server.apply_p50_ms", "server.req_per_s",
	"dynamic.seed_ms", "dynamic.apply_ms",
	"ubiclique.mine_ms", "uquasi.mine_ms", "utruss.mine_ms", "ucore.mine_ms",
	"udensest.mine_ms", "ucluster.mine_ms",
}

// arrivalVertices bounds the arrival-order CSR probe: the edges among the
// first this many vertices.
const arrivalVertices = 40_000

// opSeries holds the measured ops of a cli-text or mine-skewed run: wall and
// CPU seconds of every successful op, and separately the walls of traced ops.
type opSeries struct {
	walls, cpus, tracedWalls []float64
}

// opLoop runs op until the measured ops add up to cfg.seconds and at least
// minOps ran; a traced pass alternates untraced and traced ops and runs at
// least minOps of each. check verifies the answer of the op just run. An op
// that fails or answers wrong counts as failed in out and leaves no sample.
func opLoop(cfg config, tr *tracer, out *outcome, name string, op func() (wall, cpu float64, err error), check func() error) opSeries {
	var s opSeries
	wanted := minOps
	if cfg.trace {
		wanted = 2 * minOps
	}
	measured := 0.0
	for i := 0; measured < cfg.seconds.Seconds() || i < wanted; i++ {
		traced := cfg.trace && i%2 == 1
		id := -1
		if traced {
			id = tr.begin(name+".op", i, -1)
		}
		wall, cpu, err := op()
		tr.end(id)
		fmt.Fprintf(os.Stderr, "%s op %d: %.3f s wall, %.3f s CPU\n", name, i, wall, cpu)
		out.attempted++
		measured += wall
		if err == nil {
			err = check()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", name, i, err)
			out.failed++
			continue
		}
		if traced {
			s.tracedWalls = append(s.tracedWalls, wall)
		} else {
			s.walls = append(s.walls, wall)
		}
		s.cpus = append(s.cpus, cpu)
	}
	out.correct = out.correct && out.failed == 0
	return s
}

// libraryLayers finishes the traced pass of cli-text and mine-skewed: the
// layer pass on the workload's file, zeros for the layers only serve-mixed
// runs, the tracing overhead, and the spans written to the work directory.
func libraryLayers(cfg config, tr *tracer, s opSeries, file string, alpha float64, workers int) (map[string]float64, error) {
	vals, err := layerPass(cfg, tr, file, alpha, workers)
	if err != nil {
		return nil, err
	}
	for _, name := range serveOnlyLayers {
		vals[name] = 0
	}
	vals["exec.rejected"] = float64(mule.DefaultExecutor().AdmissionStats().Rejected)
	vals["trace.overhead_s"] = median(s.tracedWalls) - median(s.walls)
	return vals, tr.write(filepath.Join(cfg.work, fmt.Sprintf("trace-seed%d.json", cfg.seed)))
}

// runMule runs the mule binary with args, stdout to outPath, and returns its
// wall time, CPU time and peak RSS. The peak is polled from /proc while mule
// runs: a child's rusage maxrss also counts the high-water mark of the
// process that forked it.
func runMule(cfg config, outPath string, args ...string) (wall float64, cpu time.Duration, rssMB float64, err error) {
	out, err := os.Create(outPath)
	if err != nil {
		return 0, 0, 0, err
	}
	defer out.Close()
	cmd := exec.Command(filepath.Join(cfg.bin, "mule"), args...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, 0, err
	}
	done := make(chan struct{})
	polled := make(chan float64)
	go func() {
		pid, peak := strconv.Itoa(cmd.Process.Pid), 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if hwm, err := vmHWM(pid); err == nil {
				peak = max(peak, hwm)
			}
			select {
			case <-done:
				polled <- peak
				return
			case <-tick.C:
			}
		}
	}()
	err = cmd.Wait()
	wall = time.Since(start).Seconds()
	close(done)
	rssMB = <-polled
	cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if err != nil {
		return wall, cpu, rssMB, fmt.Errorf("mule %v: %w", args, err)
	}
	return wall, cpu, rssMB, out.Close()
}

// printClique writes one clique in cmd/mule's output format.
func printClique(w *bufio.Writer, c []int, p float64) {
	w.WriteString(strconv.FormatFloat(p, 'g', 9, 64))
	w.WriteByte('\t')
	for i, v := range c {
		if i > 0 {
			w.WriteByte(' ')
		}
		w.WriteString(strconv.Itoa(v))
	}
	w.WriteByte('\n')
}

// muleOutputDigest parses a cmd/mule clique listing ("p<TAB>v1 v2 …" lines).
func muleOutputDigest(path string) (digest, error) {
	var d digest
	f, err := os.Open(path)
	if err != nil {
		return d, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var vs []int
	for sc.Scan() {
		line := sc.Bytes()
		tab := -1
		for i, b := range line {
			if b == '\t' {
				tab = i
				break
			}
		}
		if tab < 0 {
			return d, fmt.Errorf("malformed output line %q", line)
		}
		p, err := strconv.ParseFloat(string(line[:tab]), 64)
		if err != nil {
			return d, fmt.Errorf("malformed probability in %q", line)
		}
		vs = vs[:0]
		v, inNum := 0, false
		for _, b := range line[tab+1:] {
			if b >= '0' && b <= '9' {
				v, inNum = v*10+int(b-'0'), true
				continue
			}
			if inNum {
				vs = append(vs, v)
			}
			v, inNum = 0, false
		}
		if inNum {
			vs = append(vs, v)
		}
		d.add(cliqueHash(vs, p))
	}
	return d, sc.Err()
}

// layerPass is the traced pass shared by every workload: it calls each
// layer of the CLI/library path on the workload's text graph file, one public
// function at a time, inside spans, and derives the per-layer metrics from
// the spans' self times. workers is the search configuration the workload
// uses (1 = serial).
func layerPass(cfg config, tr *tracer, file string, alpha float64, workers int) (map[string]float64, error) {
	const op = -1 // the layer calls belong to no measured op
	ctx := context.Background()
	vals := make(map[string]float64)
	var err error

	tr.do("graphio.ScanEdges", op, -1, func() {
		var f *os.File
		if f, err = os.Open(file); err != nil {
			return
		}
		defer f.Close()
		_, err = graphio.ScanEdges(f, func(int, int, float64) error { return nil })
	})
	if err != nil {
		return nil, err
	}

	var g *mule.Graph
	allocBytes, _ := allocDelta(func() {
		tr.do("graphio.LoadFile", op, -1, func() { g, err = graphio.LoadFile(file) })
	})
	if err != nil {
		return nil, err
	}
	vals["graphio.alloc_mb"] = float64(allocBytes) / (1 << 20)

	// Replay the same edges from memory so the CSR build is timed without
	// the parser.
	var us, vs []int32
	var ps []float64
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	hdr, err := graphio.ScanEdges(f, func(u, v int, p float64) error {
		us, vs, ps = append(us, int32(u)), append(vs, int32(v)), append(ps, p)
		return nil
	})
	f.Close()
	if err != nil {
		return nil, err
	}
	tr.do("uncertain.FromEdgeScanner", op, -1, func() {
		_, err = uncertain.FromEdgeScanner(func(emit func(u, v int, p float64) error) (int, error) {
			for i := range us {
				if err := emit(int(us[i]), int(vs[i]), ps[i]); err != nil {
					return 0, err
				}
			}
			return hdr.Vertices, nil
		})
	})
	if err != nil {
		return nil, err
	}

	// The same build with the edges among the first arrivalVertices vertices
	// in arrival order (by larger endpoint, as a growth model emits them):
	// the degree array then grows once per new vertex.
	var arrival []int
	for i := range us {
		if max(us[i], vs[i]) < arrivalVertices {
			arrival = append(arrival, i)
		}
	}
	sort.SliceStable(arrival, func(a, b int) bool {
		return max(us[arrival[a]], vs[arrival[a]]) < max(us[arrival[b]], vs[arrival[b]])
	})
	tr.do("uncertain.FromEdgeScanner.arrival", op, -1, func() {
		_, err = uncertain.FromEdgeScanner(func(emit func(u, v int, p float64) error) (int, error) {
			for _, i := range arrival {
				if err := emit(int(us[i]), int(vs[i]), ps[i]); err != nil {
					return 0, err
				}
			}
			return min(hdr.Vertices, arrivalVertices), nil
		})
	})
	if err != nil {
		return nil, err
	}
	us, vs, ps, arrival = nil, nil, nil, nil

	var pruned *mule.Graph
	tr.do("uncertain.PruneAlpha", op, -1, func() { pruned = g.PruneAlpha(alpha) })
	vals["uncertain.pruned_edges"] = float64(g.NumEdges() - pruned.NumEdges())

	// Search with a nil visitor, serially and on two workers.
	search := func(name string, w int) (mule.Stats, uint64, uint64, error) {
		q, err := mule.NewQuery(pruned, alpha, mule.WithWorkers(w))
		if err != nil {
			return mule.Stats{}, 0, 0, err
		}
		var st mule.Stats
		bytes, objs := allocDelta(func() {
			tr.do(name, op, -1, func() { st, err = q.Run(ctx, nil) })
		})
		return st, bytes, objs, err
	}
	serial, sBytes, sObjs, err := search("core.search.serial", 1)
	if err != nil {
		return nil, err
	}
	par, pBytes, pObjs, err := search("core.search.parallel", 2)
	if err != nil {
		return nil, err
	}
	if serial.Emitted != par.Emitted {
		return nil, fmt.Errorf("serial search found %d cliques, 2-worker search %d", serial.Emitted, par.Emitted)
	}
	self := tr.selfTimes()
	tSerial, tPar := self["core.search.serial"][0], self["core.search.parallel"][0]
	st, bytes, objs, searchSpan := serial, sBytes, sObjs, "core.search.serial"
	if workers > 1 {
		st, bytes, objs, searchSpan = par, pBytes, pObjs, "core.search.parallel"
	}
	vals["core.calls"] = float64(st.Calls)
	vals["core.emitted"] = float64(st.Emitted)
	vals["core.emitted_per_call"] = float64(st.Emitted) / float64(st.Calls)
	vals["core.candidate_ops"] = float64(st.CandidateOps)
	vals["core.witness_ops"] = float64(st.WitnessOps)
	vals["core.bitset_ops"] = float64(st.BitsetOps)
	vals["core.allocs_per_call"] = float64(objs) / float64(st.Calls)
	vals["core.bytes_per_call"] = float64(bytes) / float64(st.Calls)
	vals["exec.steals"] = float64(par.Steals)
	vals["exec.splits"] = float64(par.Splits)
	vals["exec.parallel_eff"] = tSerial / (2 * tPar)

	// Delivery: the same search with a visitor that copies every clique out,
	// as any consumer of the reused visitor slice must.
	q, err := mule.NewQuery(pruned, alpha, mule.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	var flat []int
	var probs []float64
	tr.do("mule.Run.copy", op, -1, func() {
		_, err = q.Run(ctx, func(c []int, p float64) bool {
			flat = append(flat, c...)
			probs = append(probs, p)
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	flat, probs = nil, nil

	// The CLI against the same work in process: load, then Run printing every
	// clique in mule's format to io.Discard.
	outPath := filepath.Join(cfg.work, "layers-mule.out")
	args := []string{"-in", file, "-alpha", strconv.FormatFloat(alpha, 'g', -1, 64), "-workers", strconv.Itoa(workers), "-quiet"}
	var cliWall float64
	tr.do("cmd/mule", op, -1, func() { cliWall, _, _, err = runMule(cfg, outPath, args...) })
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(outPath); err == nil {
		vals["cli.out_mb"] = float64(fi.Size()) / (1 << 20)
	}
	os.Remove(outPath)
	inproc := timed(func() {
		var g2 *mule.Graph
		if g2, err = graphio.LoadFile(file); err != nil {
			return
		}
		var q2 *mule.Query
		if q2, err = mule.NewQuery(g2, alpha, mule.WithWorkers(workers)); err != nil {
			return
		}
		w := bufio.NewWriterSize(io.Discard, 64<<10)
		_, err = q2.Run(ctx, func(c []int, p float64) bool { printClique(w, c, p); return true })
		w.Flush()
	})
	if err != nil {
		return nil, err
	}
	vals["cli.overhead_s"] = cliWall - inproc

	self = tr.selfTimes()
	vals["graphio.scan_s"] = self["graphio.ScanEdges"][0]
	vals["graphio.load_s"] = self["graphio.LoadFile"][0]
	vals["uncertain.csr_s"] = self["uncertain.FromEdgeScanner"][0]
	vals["uncertain.csr_arrival_s"] = self["uncertain.FromEdgeScanner.arrival"][0]
	vals["uncertain.prune_s"] = self["uncertain.PruneAlpha"][0]
	vals["core.search_s"] = self[searchSpan][0]
	vals["mule.deliver_s"] = self["mule.Run.copy"][0] - self[searchSpan][0]
	return vals, nil
}
