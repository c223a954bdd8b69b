package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// serve-mixed: the muled binary over loopback, driven by a closed loop of two
// clients through a seeded mix of cache hits, fresh-shape misses across all
// seven miners, and small /apply batches.
const (
	socVertices   = 2000
	socEdges      = 8000
	smallVertices = 100
	midVertices   = 600
	baAttach      = 4
	affLeft       = 200
	affRight      = 200
	affEdges      = 400
	// Every graph kind comes in serveInstances instances generated from the
	// seed; misses rotate over them, so a run's figures average over several
	// graphs rather than hang on one.
	serveInstances = 4
	// applyGraph is the graph every /apply updates.
	applyGraph = "soc0"

	serveClients = 2
	serveWorkers = 2
	// Op i is an /apply when i%applyEvery == 0 and a miss when
	// i%missEvery == missPhase; every other op asks a hot shape.
	applyEvery = 200
	missEvery  = 25
	missPhase  = 12
	// The soc hot shape is asked only in the second half of each apply
	// period, long after muled's background re-warm of it has finished, so
	// whether it hits does not depend on timing.
	socHotFrom = applyEvery / 2
	// maintAlpha seeds muled's incremental clique maintainer.
	maintAlpha    = 0.1
	serveSetups   = 5
	clientTimeout = 60 * time.Second
)

// serveInputs are the generated graphs, in file form and as the library
// sees them, plus the edge set of applyGraph that /apply batches modify.
type serveInputs struct {
	files     map[string]string // graph name → path
	graphs    map[string]*mule.Graph
	bipartite map[string]*mule.Bipartite
	socBase   edgeList
}

func genServeInputs(seed int64, dir string) (serveInputs, error) {
	in := serveInputs{files: make(map[string]string), graphs: make(map[string]*mule.Graph),
		bipartite: make(map[string]*mule.Bipartite)}
	rng := rand.New(rand.NewSource(seed))
	for inst := 0; inst < serveInstances; inst++ {
		suffix := strconv.Itoa(inst)
		soc := genChungLu(rng, socVertices, socEdges, skewExponent)
		small := genBA(rng, smallVertices, baAttach)
		mid := genBA(rng, midVertices, baAttach)
		aff := genAffinity(rng, affLeft, affRight, affEdges)
		sortEdges(small.edges)
		sortEdges(mid.edges)
		if inst == 0 {
			in.socBase = soc
		}
		for kind, g := range map[string]edgeList{"soc": soc, "small": small, "mid": mid} {
			name := kind + suffix
			in.files[name] = filepath.Join(dir, name+".ug")
			if err := writeGraphText(in.files[name], g); err != nil {
				return in, err
			}
			loaded, err := graphio.LoadFile(in.files[name])
			if err != nil {
				return in, err
			}
			in.graphs[name] = loaded
		}
		name := "aff" + suffix
		in.files[name] = filepath.Join(dir, name+".ubg")
		if err := writeBipartiteText(in.files[name], aff); err != nil {
			return in, err
		}
		loaded, err := graphio.LoadBipartiteFile(in.files[name])
		if err != nil {
			return in, err
		}
		in.bipartite[name] = loaded
	}
	return in, nil
}

// muled is a running muled process.
type muled struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	drain  chan struct{}
	client *http.Client
}

// startMuled launches muled with the three graphs preloaded and waits until
// /healthz answers.
func startMuled(cfg config, files map[string]string) (*muled, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(serveWorkers)}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		args = append(args, "-load", name+"="+files[name])
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "muled"), args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	m := &muled{cmd: cmd, drain: make(chan struct{}), client: &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		},
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(m.drain)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "muled listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		m.base = "http://" + a
	case <-m.drain:
		m.stop()
		return nil, errors.New("muled exited before listening")
	case <-time.After(2 * time.Minute):
		m.stop()
		return nil, errors.New("muled did not start listening")
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		resp, err := m.client.Get(m.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return m, nil
			}
		}
		if time.Now().After(deadline) {
			m.stop()
			return nil, fmt.Errorf("muled /healthz never answered: %v", err)
		}
	}
}

// stop shuts muled down and waits for it to exit.
func (m *muled) stop() {
	m.client.CloseIdleConnections()
	_ = m.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { m.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = m.cmd.Process.Kill()
		<-done
	}
	<-m.drain
}

// do sends one request and returns the status, body and latency.
func (m *muled) do(method, path string, body []byte) (int, []byte, float64, error) {
	start := time.Now()
	req, err := http.NewRequest(method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start).Seconds(), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start).Seconds(), err
}

// serverStats is the part of GET /stats the benchmark records.
type serverStats struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Warm struct {
		Scheduled int64 `json:"scheduled"`
		Completed int64 `json:"completed"`
		Skipped   int64 `json:"skipped"`
	} `json:"warm"`
	Admission struct {
		Rejected int64 `json:"Rejected"`
	} `json:"admission"`
}

func (m *muled) stats() (serverStats, error) {
	var s serverStats
	code, body, _, err := m.do(http.MethodGet, "/stats", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/stats: HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(body, &s)
	}
	return s, err
}

// batches hands out the /apply batches. Batch k updates one soc edge's
// probability, removes another and inserts two new edges; no edge is touched
// by two batches, so the graph after any set of batches does not depend on
// the order they committed in.
type batches struct {
	mu       sync.Mutex
	rng      *rand.Rand
	order    []edge // base edges in a seeded order; batch k uses 2k and 2k+1
	present  map[uint64]bool
	n        int
	generate [][]mule.EdgeUpdate
}

func newBatches(seed int64, base edgeList) *batches {
	b := &batches{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), n: base.n, present: make(map[uint64]bool)}
	b.order = append([]edge(nil), base.edges...)
	b.rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	for _, e := range base.edges {
		b.present[pairKey(e.u, e.v)] = true
	}
	return b
}

// get returns batch k, generating batches in order so the content of batch k
// depends only on the seed.
func (b *batches) get(k int) []mule.EdgeUpdate {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.generate) <= k {
		j := len(b.generate)
		upd, rem := b.order[2*j%len(b.order)], b.order[(2*j+1)%len(b.order)]
		batch := []mule.EdgeUpdate{
			{U: upd.u, V: upd.v, P: probMicros(b.rng)},
			{U: rem.u, V: rem.v, Remove: true},
		}
		for len(batch) < 4 {
			u, v := b.rng.Intn(b.n), b.rng.Intn(b.n)
			if u == v || b.present[pairKey(u, v)] {
				continue
			}
			b.present[pairKey(u, v)] = true
			batch = append(batch, mule.EdgeUpdate{U: min(u, v), V: max(u, v), P: probMicros(b.rng)})
		}
		b.generate = append(b.generate, batch)
	}
	return b.generate[k]
}

// applyBody encodes a batch as an /apply request body; muled matches the
// field names U, V, P and Remove case-insensitively.
func applyBody(batch []mule.EdgeUpdate) []byte {
	b, _ := json.Marshal(map[string]any{"updates": batch})
	return b
}

// Op classes, by endpoint and by the response's cached flag.
const (
	classHit   = "hit"
	classMiss  = "miss"
	classApply = "apply"
)

// opRecord is one request of the measured phase.
type opRecord struct {
	index   int
	class   string
	latency float64
	failed  bool
	shape   shape
	epoch   uint64
	bytes   int
	count   int64
	rawHash uint64 // FNV-64 of the results array
	batch   int    // /apply: batch number
}

// answerKey groups the responses that must carry the same results.
type answerKey struct {
	shape string
	epoch uint64
}

// phase is one closed-loop measured phase.
type phase struct {
	ops     []opRecord
	wall    float64
	answers map[answerKey]map[uint64][]byte // distinct raw results per answer
}

// opFor returns what op i of the schedule does.
func opFor(seed int64, i int) (isApply bool, s shape) {
	switch {
	case i%applyEvery == 0:
		return true, shape{}
	case i%missEvery == missPhase:
		s = missShape(i / missEvery)
		s.limit = missLimitBase + int64(i)
		return false, s
	}
	h := int(mix64(uint64(seed)^uint64(i)) % uint64(len(hotShapes)+1))
	if h == len(hotShapes) {
		if i%applyEvery >= socHotFrom {
			return false, socHot
		}
		h = i % len(hotShapes)
	}
	return false, hotShapes[h]
}

// runPhase drives muled with serveClients closed-loop clients for d,
// starting at op index first. A non-nil tracer records a span per request.
func runPhase(cfg config, m *muled, bs *batches, first int, d time.Duration, tr *tracer) *phase {
	ph := &phase{answers: make(map[answerKey]map[uint64][]byte)}
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				isApply, s := opFor(cfg.seed, i)
				var rec opRecord
				var raw []byte
				name := "http.query"
				if isApply {
					name = "http.apply"
				}
				id := tr.begin(name, i, -1)
				if isApply {
					rec = doApply(m, bs, i)
				} else {
					rec, raw = doQuery(m, s, i)
				}
				tr.end(id)
				mu.Lock()
				ph.ops = append(ph.ops, rec)
				if raw != nil {
					k := answerKey{rec.shape.key(), rec.epoch}
					if ph.answers[k] == nil {
						ph.answers[k] = make(map[uint64][]byte)
					}
					if _, seen := ph.answers[k][rec.rawHash]; !seen {
						ph.answers[k][rec.rawHash] = raw
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start).Seconds()
	sort.Slice(ph.ops, func(a, b int) bool { return ph.ops[a].index < ph.ops[b].index })
	return ph
}

// applyK maps op index i to its batch number; batch 0 is applied while
// warming up.
func applyK(i int) int { return 1 + i/applyEvery }

func doApply(m *muled, bs *batches, i int) opRecord {
	k := applyK(i)
	batch := bs.get(k)
	rec := opRecord{index: i, class: classApply, batch: k}
	code, body, lat, err := m.do(http.MethodPost, fmt.Sprintf("/graphs/%s/apply?alpha=%g", applyGraph, maintAlpha), applyBody(batch))
	rec.latency = lat
	var resp struct {
		Epoch   uint64 `json:"epoch"`
		Updates int    `json:"updates"`
	}
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil || code != http.StatusOK || resp.Updates != len(batch) {
		fmt.Fprintf(os.Stderr, "perfbench: apply op %d failed: HTTP %d %v %s\n", i, code, err, body)
		rec.failed = true
		return rec
	}
	rec.epoch = resp.Epoch
	return rec
}

func doQuery(m *muled, s shape, i int) (opRecord, []byte) {
	rec := opRecord{index: i, class: classMiss, shape: s}
	code, body, lat, err := m.do(http.MethodGet, s.path(), nil)
	rec.latency, rec.bytes = lat, len(body)
	var resp struct {
		Epoch   uint64          `json:"epoch"`
		Cached  bool            `json:"cached"`
		Count   int64           `json:"count"`
		Results json.RawMessage `json:"results"`
	}
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil || code != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: query op %d %s failed: HTTP %d %v\n", i, s.path(), code, err)
		rec.failed = true
		return rec, nil
	}
	if resp.Cached {
		rec.class = classHit
	}
	h := fnv.New64a()
	h.Write(resp.Results)
	rec.epoch, rec.count, rec.rawHash = resp.Epoch, resp.Count, h.Sum64()
	return rec, resp.Results
}

// commit is one /apply batch muled committed, with the epoch it created.
type commit struct {
	epoch uint64
	batch int
}

// socHistory rebuilds applyGraph as of any epoch: the base edges plus
// every batch that committed at or before it.
type socHistory struct {
	base    edgeList
	bs      *batches
	commits []commit
	cache   map[uint64]*mule.Graph
}

func (h *socHistory) at(epoch uint64) (*mule.Graph, error) {
	if g, ok := h.cache[epoch]; ok {
		return g, nil
	}
	edges := make(map[uint64]float64, len(h.base.edges))
	for _, e := range h.base.edges {
		edges[pairKey(e.u, e.v)] = e.p
	}
	for _, c := range h.commits {
		if c.epoch > epoch {
			continue
		}
		for _, u := range h.bs.get(c.batch) {
			if u.Remove {
				delete(edges, pairKey(u.U, u.V))
			} else {
				edges[pairKey(u.U, u.V)] = u.P
			}
		}
	}
	es := make([]mule.Edge, 0, len(edges))
	for k, p := range edges {
		es = append(es, mule.Edge{U: int(k >> 32), V: int(k & 0xffffffff), P: p})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	g, err := mule.FromEdges(h.base.n, es)
	if err != nil {
		return nil, err
	}
	h.cache[epoch] = g
	return g, nil
}

// verify checks every distinct answer of a phase against the library's
// answer for the same shape on the same graph version, and returns the
// in-process mining time of each checked answer. Ops whose answer is wrong
// are marked failed.
func verify(ph *phase, in serveInputs, hist *socHistory) (map[answerKey]float64, error) {
	shapes := make(map[string]shape)
	for _, op := range ph.ops {
		if op.class != classApply && !op.failed {
			shapes[op.shape.key()] = op.shape
		}
	}
	mineTime := make(map[answerKey]float64)
	bad := make(map[answerKey]map[uint64]bool)
	counts := make(map[answerKey]map[uint64]int64) // result count of each distinct answer
	keys := make([]answerKey, 0, len(ph.answers))
	for k := range ph.answers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shape != keys[j].shape {
			return keys[i].shape < keys[j].shape
		}
		return keys[i].epoch < keys[j].epoch
	})
	for _, k := range keys {
		s := shapes[k.shape]
		g := in.graphs[s.graph]
		if s.graph == applyGraph {
			var err error
			if g, err = hist.at(k.epoch); err != nil {
				return nil, err
			}
		}
		ref := s
		if ref.limit >= missLimitBase {
			ref.limit = 0
		}
		var want digest
		var err error
		runtime.GC()
		mineTime[k] = timed(func() { want, err = mineInProcess(ref, g, in.bipartite[s.graph]) })
		if err != nil {
			return nil, fmt.Errorf("in-process %s: %w", k.shape, err)
		}
		counts[k] = make(map[uint64]int64)
		for rh, raw := range ph.answers[k] {
			got, err := resultsDigest(s.miner, raw)
			counts[k][rh] = got.N
			if err != nil || got != want {
				fmt.Fprintf(os.Stderr, "perfbench: %s at epoch %d: answer %s (%v), want %s\n", k.shape, k.epoch, got, err, want)
				if bad[k] == nil {
					bad[k] = make(map[uint64]bool)
				}
				bad[k][rh] = true
			}
		}
	}
	for i := range ph.ops {
		op := &ph.ops[i]
		if op.class == classApply || op.failed {
			continue
		}
		k := answerKey{op.shape.key(), op.epoch}
		if bad[k][op.rawHash] || op.count != counts[k][op.rawHash] {
			op.failed = true
		}
	}
	return mineTime, nil
}

// classLatencies returns successful latencies in ms per class, and attempt
// and failure counts per class.
func classLatencies(ops []opRecord) (lat map[string][]float64, attempts, fails map[string]int64) {
	lat = make(map[string][]float64)
	attempts, fails = make(map[string]int64), make(map[string]int64)
	for _, op := range ops {
		attempts[op.class]++
		if op.failed {
			fails[op.class]++
			continue
		}
		lat[op.class] = append(lat[op.class], op.latency*1000)
	}
	return lat, attempts, fails
}

func runServeMixed(cfg config) (outcome, error) {
	var in serveInputs
	var m *muled
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if m != nil {
			m.stop()
			m = nil
		}
		runtime.GC()
		var err error
		setups = append(setups, timed(func() {
			if in, err = genServeInputs(cfg.seed, cfg.work); err != nil {
				return
			}
			m, err = startMuled(cfg, in.files)
		}))
		if err != nil {
			return outcome{}, err
		}
	}
	defer func() {
		if m != nil {
			m.stop()
		}
	}()

	// Reference answers on the loaded graphs, pinned for the default seed.
	refs := make(map[string]digest)
	refShapes := append([]shape{socHot}, hotShapes...)
	for j := range missShapes {
		refShapes = append(refShapes, missShape(j))
	}
	for _, s := range refShapes {
		d, err := mineInProcess(s, in.graphs[s.graph], in.bipartite[s.graph])
		if err != nil {
			return outcome{}, err
		}
		refs[s.key()] = d
	}
	out := outcome{correct: checkGolden(cfg, "serve-mixed", refs)}

	hist := &socHistory{base: in.socBase, bs: newBatches(cfg.seed, in.socBase), cache: make(map[uint64]*mule.Graph)}

	// Warm-up, not measured: seed the maintainer with batch 0, ask every hot
	// shape until it hits, and mine each miss shape once.
	code, body, _, err := m.do(http.MethodPost, fmt.Sprintf("/graphs/%s/apply?alpha=%g", applyGraph, maintAlpha), applyBody(hist.bs.get(0)))
	if err != nil || code != http.StatusOK {
		return out, fmt.Errorf("warm-up apply: HTTP %d %v %s", code, err, body)
	}
	var seedResp struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &seedResp); err != nil {
		return out, err
	}
	hist.commits = append(hist.commits, commit{seedResp.Epoch, 0})
	for _, s := range append([]shape{socHot}, hotShapes...) {
		for j := 0; j < 2; j++ {
			if rec, _ := doQuery(m, s, -1); rec.failed {
				return out, fmt.Errorf("warm-up query %s failed", s.path())
			}
		}
	}
	for j := 0; j < len(missShapes)*serveInstances; j++ {
		s := missShape(j)
		s.limit = missLimitBase - 1 - int64(j)
		if rec, _ := doQuery(m, s, -1); rec.failed {
			return out, fmt.Errorf("warm-up query %s failed", s.path())
		}
	}

	// Measured phase(s). The traced pass runs an untraced phase and then a
	// traced one of the same length, to report the tracing overhead.
	var tr *tracer
	var untraced *phase
	if cfg.trace {
		tr = newTracer()
		untraced = runPhase(cfg, m, hist.bs, applyEvery, cfg.seconds, nil)
	}
	first := applyEvery
	if untraced != nil {
		// Start the traced phase on a fresh apply period.
		first = (untraced.ops[len(untraced.ops)-1].index/applyEvery + 1) * applyEvery
	}
	st1, err := m.stats()
	if err != nil {
		return out, err
	}
	cpu0, err := procCPU(m.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	ph := runPhase(cfg, m, hist.bs, first, cfg.seconds, tr)
	cpu1, err := procCPU(m.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	rss, err := vmHWM(fmt.Sprint(m.cmd.Process.Pid))
	if err != nil {
		return out, err
	}
	st2, err := m.stats()
	if err != nil {
		return out, err
	}
	m.stop()
	m = nil

	// Reconstruct the soc versions and check every answer.
	phases := []*phase{ph}
	if untraced != nil {
		phases = append(phases, untraced)
	}
	for _, p := range phases {
		for _, op := range p.ops {
			if op.class == classApply && !op.failed {
				hist.commits = append(hist.commits, commit{op.epoch, op.batch})
			}
		}
	}
	mineTime, err := verify(ph, in, hist)
	if err != nil {
		return out, err
	}
	if untraced != nil {
		if _, err := verify(untraced, in, hist); err != nil {
			return out, err
		}
	}

	_, attempts, fails := classLatencies(ph.ops)
	for _, p := range phases {
		for _, op := range p.ops {
			out.attempted++
			if op.failed {
				out.failed++
			}
		}
	}
	out.correct = out.correct && out.failed == 0
	measuredCompleted := int64(len(ph.ops)) - fails[classHit] - fails[classMiss] - fails[classApply]
	missMs, missKB := make(map[string][]float64), make(map[string][]float64)
	for _, op := range ph.ops {
		if op.class == classMiss && !op.failed {
			missMs[op.shape.miner] = append(missMs[op.shape.miner], op.latency*1000)
			missKB[op.shape.miner] = append(missKB[op.shape.miner], float64(op.bytes)/1024)
		}
	}
	perMinerMs, perMinerKB := make(map[string]float64), make(map[string]float64)
	logSum := 0.0
	for _, sh := range missShapes {
		perMinerMs[sh.miner], perMinerKB[sh.miner] = median(missMs[sh.miner]), median(missKB[sh.miner])
		logSum += math.Log(perMinerMs[sh.miner])
	}
	record := map[string]any{
		"attempts": attempts, "failures": fails, "miss_p50_ms_by_miner": perMinerMs, "miss_kb_by_miner": perMinerKB,
		"cache": map[string]int64{
			"hits": st2.Cache.Hits - st1.Cache.Hits, "misses": st2.Cache.Misses - st1.Cache.Misses,
			"evictions": st2.Cache.Evictions - st1.Cache.Evictions,
		},
		"warm": map[string]int64{
			"scheduled": st2.Warm.Scheduled - st1.Warm.Scheduled, "completed": st2.Warm.Completed - st1.Warm.Completed,
			"skipped": st2.Warm.Skipped - st1.Warm.Skipped,
		},
		"admission_rejected": st2.Admission.Rejected - st1.Admission.Rejected,
	}
	rb, _ := json.Marshal(map[string]any{"serve_mixed": record})
	fmt.Println(string(rb))

	if !cfg.trace {
		out.values = map[string]float64{
			"setup_s": median(setups),
			// The geometric mean over the miners of each one's median miss
			// latency: every miner counts, and no single miner's cost
			// decides the value the way the median of the mixture would.
			"op_s":          math.Exp(logSum/float64(len(missShapes))) / 1000,
			"cpu_ms_per_op": (cpu1 - cpu0).Seconds() * 1000 / float64(measuredCompleted),
			"peak_rss_mb":   rss,
		}
		return out, nil
	}
	return out, serveLayers(cfg, tr, &out, ph, untraced, in, hist, mineTime, st1, st2)
}

// serveLayers fills the traced pass's per-layer metrics.
func serveLayers(cfg config, tr *tracer, out *outcome, ph, untraced *phase, in serveInputs, hist *socHistory,
	mineTime map[answerKey]float64, st1, st2 serverStats) error {
	lat, _, _ := classLatencies(ph.ops)
	ulat, _, _ := classLatencies(untraced.ops)
	vals, err := layerPass(cfg, tr, in.files[applyGraph], missShapes[0].value, 1)
	if err != nil {
		return err
	}
	vals["server.hit_p50_ms"] = median(lat[classHit])
	vals["server.hit_p99_ms"] = quantile(lat[classHit], 0.99)
	vals["server.miss_p50_ms"] = median(lat[classMiss])
	vals["server.miss_p90_ms"] = quantile(lat[classMiss], 0.90)
	vals["server.apply_p50_ms"] = median(lat[classApply])
	done := len(lat[classHit]) + len(lat[classMiss]) + len(lat[classApply])
	vals["server.req_per_s"] = float64(done) / ph.wall
	vals["trace.overhead_s"] = (median(lat[classMiss]) - median(ulat[classMiss])) / 1000

	// HTTP and JSON cost of a miss: its latency minus the in-process mining
	// time of the same shape on the same graph version.
	var httpMs, hitBytes []float64
	perMiner := make(map[string][]float64)
	for _, op := range ph.ops {
		if op.failed {
			continue
		}
		switch op.class {
		case classHit:
			hitBytes = append(hitBytes, float64(op.bytes))
		case classMiss:
			t := mineTime[answerKey{op.shape.key(), op.epoch}]
			httpMs = append(httpMs, (op.latency-t)*1000)
		}
	}
	// The miners are timed on their miss shapes.
	missMiner := make(map[string]string)
	for j := 0; j < len(missShapes)*serveInstances; j++ {
		missMiner[missShape(j).key()] = missShape(j).miner
	}
	for k, t := range mineTime {
		if miner, ok := missMiner[k.shape]; ok {
			perMiner[miner] = append(perMiner[miner], t*1000)
		}
	}
	vals["server.http_ms"] = median(httpMs)
	vals["server.hit_bytes"] = median(hitBytes)
	hits, misses := st2.Cache.Hits-st1.Cache.Hits, st2.Cache.Misses-st1.Cache.Misses
	vals["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	vals["server.cache_evictions"] = float64(st2.Cache.Evictions - st1.Cache.Evictions)
	vals["server.warm_completed"] = float64(st2.Warm.Completed - st1.Warm.Completed)
	vals["server.warm_skipped"] = float64(st2.Warm.Skipped - st1.Warm.Skipped)
	vals["exec.rejected"] = float64(st2.Admission.Rejected - st1.Admission.Rejected)
	for miner, name := range map[string]string{
		"bicliques": "ubiclique.mine_ms", "quasi": "uquasi.mine_ms", "truss": "utruss.mine_ms",
		"core": "ucore.mine_ms", "densest": "udensest.mine_ms", "cluster": "ucluster.mine_ms",
	} {
		vals[name] = median(perMiner[miner])
	}

	// The incremental maintainer in process: the seeding mine, then the
	// measured phase's batches in commit order.
	commits := append([]commit(nil), hist.commits...)
	sort.Slice(commits, func(i, j int) bool { return commits[i].epoch < commits[j].epoch })
	var maint *mule.Maintainer
	tr.do("dynamic.NewMaintainer", -1, -1, func() { maint, err = mule.NewMaintainer(in.graphs[applyGraph], maintAlpha) })
	if err != nil {
		return err
	}
	for _, c := range commits {
		batch := hist.bs.get(c.batch)
		tr.do("dynamic.Apply", c.batch, -1, func() { _, _, err = maint.Apply(context.Background(), batch) })
		if err != nil {
			return fmt.Errorf("in-process apply of batch %d: %w", c.batch, err)
		}
	}
	self := tr.selfTimes()
	vals["dynamic.seed_ms"] = self["dynamic.NewMaintainer"][0] * 1000
	vals["dynamic.apply_ms"] = median(self["dynamic.Apply"]) * 1000
	out.values = vals
	return tr.write(filepath.Join(cfg.work, fmt.Sprintf("trace-seed%d.json", cfg.seed)))
}
