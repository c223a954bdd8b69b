package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/faultinject"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// testGraphText encodes a small uncertain graph in the text format:
// a triangle {0,1,2}, an edge {3,4}, and an isolated vertex 5.
func testGraphText(t *testing.T) []byte {
	t.Helper()
	g, err := mule.FromEdges(6, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.9}, {U: 1, V: 2, P: 0.9},
		{U: 3, V: 4, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer builds a server with cache warming disabled, so tests that
// assert a post-apply cache miss stay deterministic; TestCacheWarming turns
// warming on explicitly.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerCfg(t, Config{Workers: 2, CacheEntries: 64, WarmKeys: -1})
}

func newTestServerCfg(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues one request and returns the status code and body.
func do(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func decodeQuery(t *testing.T, body []byte) queryResponse {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return qr
}

// TestServerEndToEnd walks the acceptance scenario: load a graph, prove the
// cache serves repeat queries byte-identically, prove an Apply bumps the
// epoch and invalidates the cache, prove per-tenant admission returns 429
// for the capped tenant while others succeed, and prove a panicking visitor
// maps to 500 with the run status while the server keeps serving.
func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t)

	// Load via POST body.
	code, body, _ := do(t, "POST", ts.URL+"/graphs/prot", testGraphText(t))
	if code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
	var info graphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch == 0 || info.Vertices != 6 || info.Edges != 4 {
		t.Fatalf("load info: %+v", info)
	}

	queryURL := ts.URL + "/graphs/prot/query?miner=cliques&alpha=0.5"

	// (a) Repeat query is served from cache, byte-identical.
	code, first, _ := do(t, "GET", queryURL, nil)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, first)
	}
	qr1 := decodeQuery(t, first)
	if qr1.Cached || qr1.Status != "complete" || qr1.Count == 0 {
		t.Fatalf("first query: %+v", qr1)
	}
	code, second, _ := do(t, "GET", queryURL, nil)
	if code != http.StatusOK {
		t.Fatalf("repeat query: %d %s", code, second)
	}
	qr2 := decodeQuery(t, second)
	if !qr2.Cached {
		t.Fatalf("repeat query not served from cache: %+v", qr2)
	}
	if !bytes.Equal(qr1.Results, qr2.Results) {
		t.Fatalf("cached results differ:\n%s\n%s", qr1.Results, qr2.Results)
	}
	if got := s.cache.stats(); got.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1 (%+v)", got.Hits, got)
	}

	// (b) Apply bumps the epoch; the next query misses the cache and sees
	// the update (edge 2-3 creates the new maximal clique {2,3}).
	code, body, _ = do(t, "POST", ts.URL+"/graphs/prot/apply",
		[]byte(`{"updates":[{"u":2,"v":3,"p":0.9}]}`))
	if code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, body)
	}
	var ar applyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Epoch <= qr1.Epoch || ar.Updates != 1 {
		t.Fatalf("apply response: %+v (query epoch %d)", ar, qr1.Epoch)
	}
	code, third, _ := do(t, "GET", queryURL, nil)
	if code != http.StatusOK {
		t.Fatalf("post-apply query: %d %s", code, third)
	}
	qr3 := decodeQuery(t, third)
	if qr3.Cached {
		t.Fatal("post-apply query served from stale cache")
	}
	if qr3.Epoch != ar.Epoch {
		t.Fatalf("post-apply query epoch = %d, want %d", qr3.Epoch, ar.Epoch)
	}
	if qr3.Count != qr1.Count+1 {
		t.Fatalf("post-apply count = %d, want %d", qr3.Count, qr1.Count+1)
	}
	if !strings.Contains(string(qr3.Results), `"vertices":[2,3]`) {
		t.Fatalf("post-apply results missing clique {2,3}: %s", qr3.Results)
	}

	// (c) The capped tenant's over-budget query gets 429 with Retry-After;
	// an uncapped tenant runs the same query fine.
	code, body, _ = do(t, "PUT", ts.URL+"/tenants/capped/limits",
		[]byte(`{"max_inflight":0,"max_queued":0,"max_budget":5}`))
	if code != http.StatusOK {
		t.Fatalf("set limits: %d %s", code, body)
	}
	code, body, hdr := do(t, "GET", queryURL+"&tenant=capped&budget=100&nocache=true", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("capped tenant: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" {
		t.Fatalf("429 without error detail: %s", body)
	}
	code, body, _ = do(t, "GET", queryURL+"&tenant=open&budget=100&nocache=true", nil)
	if code != http.StatusOK {
		t.Fatalf("uncapped tenant: %d %s", code, body)
	}
	stats := statsOf(t, ts)
	if stats.Admission.RejectedBudget != 1 || stats.Admission.Rejected != 1 {
		t.Fatalf("admission stats: %+v", stats.Admission)
	}

	// (d) A panicking visitor maps to 500 with the run status — and the
	// server keeps serving afterwards.
	restore := faultinject.Activate(faultinject.NewPlan(1).Arm(faultinject.PanicVisitor, 1))
	code, body, _ = do(t, "GET", queryURL+"&nocache=true", nil)
	restore()
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking query: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Status != mule.StatusPanicked.String() {
		t.Fatalf("panicking query status = %q, want %q (%s)", er.Status, mule.StatusPanicked, body)
	}
	code, body, _ = do(t, "GET", queryURL+"&nocache=true", nil)
	if code != http.StatusOK {
		t.Fatalf("query after contained panic: %d %s", code, body)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight = %d after all queries returned", s.InFlight())
	}
}

func statsOf(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	code, body, _ := do(t, "GET", ts.URL+"/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	var sr statsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestServerAllMiners runs one query per family, covering the bipartite
// load path and the graph-kind mismatch rejection.
func TestServerAllMiners(t *testing.T) {
	_, ts := newTestServer(t)

	if code, body, _ := do(t, "POST", ts.URL+"/graphs/g", testGraphText(t)); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
	bip := []byte("bipartite 2 2\n0 0 0.9\n0 1 0.9\n1 0 0.9\n1 1 0.9\n")
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/b?kind=bipartite", bip); code != http.StatusOK {
		t.Fatalf("load bipartite: %d %s", code, body)
	}

	for _, tc := range []struct {
		name  string
		query string
	}{
		{"cliques", "/graphs/g/query?miner=cliques&alpha=0.5"},
		{"quasi", "/graphs/g/query?miner=quasi&gamma=0.6&minsize=2"},
		{"truss", "/graphs/g/query?miner=truss&eta=0.5"},
		{"core", "/graphs/g/query?miner=core&eta=0.5"},
		{"bicliques", "/graphs/b/query?miner=bicliques&alpha=0.5&minl=2&minr=2"},
		{"densest", "/graphs/g/query?miner=densest"},
		{"cluster", "/graphs/g/query?miner=cluster&centers=3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body, _ := do(t, "GET", ts.URL+tc.query, nil)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.query, code, body)
			}
			qr := decodeQuery(t, body)
			if qr.Status != "complete" || qr.Count == 0 {
				t.Fatalf("%s: %+v", tc.query, qr)
			}
		})
	}

	// Kind mismatches are 400, not 500.
	if code, body, _ := do(t, "GET", ts.URL+"/graphs/g/query?miner=bicliques&alpha=0.5", nil); code != http.StatusBadRequest {
		t.Fatalf("bicliques on graph: %d %s", code, body)
	}
	if code, body, _ := do(t, "GET", ts.URL+"/graphs/b/query?miner=cliques&alpha=0.5", nil); code != http.StatusBadRequest {
		t.Fatalf("cliques on bipartite: %d %s", code, body)
	}
	// Updates apply to regular graphs only.
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/b/apply", []byte(`{"updates":[{"u":0,"v":1,"p":0.5}]}`)); code != http.StatusBadRequest {
		t.Fatalf("apply on bipartite: %d %s", code, body)
	}
}

// TestServerValidation pins the 4xx surface: unknown graphs, malformed
// parameters, out-of-scope parameters, and invalid thresholds all map to
// client errors, never 500.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/g", testGraphText(t)); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/graphs/nope/query?miner=cliques&alpha=0.5", http.StatusNotFound},
		{"/graphs/nope", http.StatusNotFound},
		{"/graphs/g/query", http.StatusBadRequest},                                   // no miner
		{"/graphs/g/query?miner=wat&alpha=0.5", http.StatusBadRequest},               // unknown miner
		{"/graphs/g/query?miner=cliques", http.StatusBadRequest},                     // missing alpha
		{"/graphs/g/query?miner=cliques&alpha=nope", http.StatusBadRequest},          // malformed alpha
		{"/graphs/g/query?miner=cliques&alpha=7", http.StatusBadRequest},             // alpha out of range
		{"/graphs/g/query?miner=cliques&alpha=0.5&gamma=0.6", http.StatusBadRequest}, // out of scope
		{"/graphs/g/query?miner=cliques&alpha=0.5&alpha=0.6", http.StatusBadRequest}, // repeated
		{"/graphs/g/query?miner=quasi&gamma=0.2", http.StatusBadRequest},             // gamma out of range
		{"/graphs/g/query?miner=cliques&alpha=0.5&limit=-3", http.StatusBadRequest},
		{"/graphs/g/query?miner=cliques&alpha=0.5&timeout=banana", http.StatusBadRequest},
		{"/graphs/g/query?miner=cluster", http.StatusBadRequest},             // missing centers
		{"/graphs/g/query?miner=cluster&centers=99", http.StatusBadRequest},  // centers out of range (6 vertices)
		{"/graphs/g/query?miner=densest&centers=2", http.StatusBadRequest},   // out of scope
		{"/graphs/g/query?miner=densest&alpha=0.5", http.StatusBadRequest},   // out of scope
		{"/graphs/g/query?miner=cluster&centers=wat", http.StatusBadRequest}, // malformed centers
	} {
		code, body, _ := do(t, "GET", ts.URL+tc.path, nil)
		if code != tc.want {
			t.Errorf("%s: got %d, want %d (%s)", tc.path, code, tc.want, body)
		}
	}

	// Malformed apply bodies.
	for _, body := range []string{"", "{", `{"updates":[]}`, `{"wat":1}`} {
		code, out, _ := do(t, "POST", ts.URL+"/graphs/g/apply", []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("apply %q: got %d, want 400 (%s)", body, code, out)
		}
	}
	// Invalid update inside a batch is a 400 too (validation sentinel).
	code, out, _ := do(t, "POST", ts.URL+"/graphs/g/apply", []byte(`{"updates":[{"u":0,"v":0,"p":0.5}]}`))
	if code != http.StatusBadRequest {
		t.Errorf("self-loop apply: got %d, want 400 (%s)", code, out)
	}
}

// TestServerLimitTruncation pins the limit → 200 + truncated mapping and
// that truncated limit runs are cached under their own key.
func TestServerLimitTruncation(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/g", testGraphText(t)); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
	u := ts.URL + "/graphs/g/query?miner=cliques&alpha=0.5&limit=1"
	code, body, _ := do(t, "GET", u, nil)
	if code != http.StatusOK {
		t.Fatalf("limited query: %d %s", code, body)
	}
	qr := decodeQuery(t, body)
	if !qr.Truncated || qr.Count != 1 || qr.Status != "stopped" {
		t.Fatalf("limited query: %+v", qr)
	}
	code, body, _ = do(t, "GET", u, nil)
	if code != http.StatusOK {
		t.Fatalf("repeat limited query: %d %s", code, body)
	}
	if qr2 := decodeQuery(t, body); !qr2.Cached || !qr2.Truncated {
		t.Fatalf("repeat limited query: %+v", qr2)
	}
}

// TestServerGraphLifecycle covers list, info, reload (epoch bump), and
// delete.
func TestServerGraphLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	g := testGraphText(t)
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/a", g); code != http.StatusOK {
		t.Fatalf("load a: %d %s", code, body)
	}
	code, body, _ := do(t, "POST", ts.URL+"/graphs/b", g)
	if code != http.StatusOK {
		t.Fatalf("load b: %d %s", code, body)
	}
	var infoB graphInfo
	if err := json.Unmarshal(body, &infoB); err != nil {
		t.Fatal(err)
	}

	code, body, _ = do(t, "GET", ts.URL+"/graphs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "a" || list.Graphs[1].Name != "b" {
		t.Fatalf("list: %s", body)
	}

	// Reloading replaces the graph under a strictly newer epoch.
	code, body, _ = do(t, "PUT", ts.URL+"/graphs/b", g)
	if code != http.StatusOK {
		t.Fatalf("reload b: %d %s", code, body)
	}
	var infoB2 graphInfo
	if err := json.Unmarshal(body, &infoB2); err != nil {
		t.Fatal(err)
	}
	if infoB2.Epoch <= infoB.Epoch {
		t.Fatalf("reload epoch %d not past %d", infoB2.Epoch, infoB.Epoch)
	}

	if code, body, _ := do(t, "DELETE", ts.URL+"/graphs/a", nil); code != http.StatusOK {
		t.Fatalf("delete a: %d %s", code, body)
	}
	if code, _, _ := do(t, "DELETE", ts.URL+"/graphs/a", nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/graphs/a", nil); code != http.StatusNotFound {
		t.Fatalf("info after delete: %d", code)
	}
}

// TestServerDeadline pins the deadline → 504 mapping using a microscopic
// per-query timeout against a graph big enough to not finish instantly.
func TestServerDeadline(t *testing.T) {
	_, ts := newTestServer(t)

	// A denser random-ish graph so the run cannot finish in a nanosecond.
	var buf bytes.Buffer
	n := 60
	var edges []mule.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u*31+v*17)%3 != 0 {
				edges = append(edges, mule.Edge{U: u, V: v, P: 0.9})
			}
		}
	}
	g, err := mule.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/big", buf.Bytes()); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}

	u := ts.URL + "/graphs/big/query?miner=cliques&alpha=0.1&timeout=" + url.QueryEscape("1ns")
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body, _ := do(t, "GET", u, nil)
		if code == http.StatusGatewayTimeout {
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			if er.Status != mule.StatusDeadline.String() {
				t.Fatalf("deadline status = %q (%s)", er.Status, body)
			}
			return
		}
		// A 1ns deadline can in principle still let a run finish; retry
		// briefly rather than flake.
		if time.Now().After(deadline) {
			t.Fatalf("never saw 504, last: %d %s", code, body)
		}
	}
}

// TestInstall covers the programmatic preload path used by cmd/muled.
func TestInstall(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g, err := mule.FromEdges(2, []mule.Edge{{U: 0, V: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install("", &Snapshot{Graph: g}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Install("g", &Snapshot{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if err := s.Install("g", &Snapshot{Graph: g}); err != nil {
		t.Fatal(err)
	}
	e := s.reg.get("g")
	if e == nil || e.snapshot().Epoch == 0 {
		t.Fatalf("install did not publish: %+v", e)
	}
}

// TestCacheWarming pins satellite behavior: after a committed Apply, the
// server re-issues recently hit query shapes against the new epoch in the
// background, so the next client query is a cache hit that already reflects
// the update — and the warming work is observable in /stats.
func TestCacheWarming(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: 2, CacheEntries: 64, WarmKeys: 2})

	if code, body, _ := do(t, "POST", ts.URL+"/graphs/prot", testGraphText(t)); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
	queryURL := ts.URL + "/graphs/prot/query?miner=cliques&alpha=0.5"

	// Miss, then hit: the hit records the shape for warming.
	code, body, _ := do(t, "GET", queryURL, nil)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	if code, body, _ = do(t, "GET", queryURL, nil); code != http.StatusOK || !decodeQuery(t, body).Cached {
		t.Fatalf("repeat query not cached: %d %s", code, body)
	}
	if got := s.warm.tracked(); got != 1 {
		t.Fatalf("tracked shapes = %d, want 1", got)
	}

	code, body, _ = do(t, "POST", ts.URL+"/graphs/prot/apply",
		[]byte(`{"updates":[{"u":2,"v":3,"p":0.9}]}`))
	if code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, body)
	}
	var ar applyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}

	// The warm pass runs in the background; wait for it to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := s.warmStatsSnapshot()
		if ws.Completed >= 1 && ws.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warming never completed: %+v", ws)
		}
		time.Sleep(time.Millisecond)
	}
	ws := s.warmStatsSnapshot()
	if ws.Scheduled != 1 || ws.Completed != 1 || ws.Failed != 0 {
		t.Fatalf("warm stats: %+v", ws)
	}

	// The next query hits the warmed entry — fresh epoch, updated answer.
	code, body, _ = do(t, "GET", queryURL, nil)
	if code != http.StatusOK {
		t.Fatalf("post-apply query: %d %s", code, body)
	}
	qr := decodeQuery(t, body)
	if !qr.Cached {
		t.Fatalf("post-apply query not served from warmed cache: %+v", qr)
	}
	if qr.Epoch != ar.Epoch {
		t.Fatalf("warmed entry epoch = %d, want %d", qr.Epoch, ar.Epoch)
	}
	if !strings.Contains(string(qr.Results), `"vertices":[2,3]`) {
		t.Fatalf("warmed results missing clique {2,3}: %s", qr.Results)
	}

	// Deleting the graph purges its warm shapes.
	if code, body, _ = do(t, "DELETE", ts.URL+"/graphs/prot", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if got := s.warm.tracked(); got != 0 {
		t.Fatalf("tracked shapes after delete = %d, want 0", got)
	}
}

// TestApplyAlphaPinned pins the /apply α contract: the first batch's
// ?alpha= seeds the graph's maintainer, a later batch naming a different α
// is rejected with 400 before anything applies (same epoch, same graph),
// and later batches that repeat or omit α keep the seeded one.
func TestApplyAlphaPinned(t *testing.T) {
	s, ts := newTestServer(t)
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/g", testGraphText(t)); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
	apply := func(query, body string) (int, applyResponse) {
		t.Helper()
		code, out, _ := do(t, "POST", ts.URL+"/graphs/g/apply"+query, []byte(body))
		var ar applyResponse
		if err := json.Unmarshal(out, &ar); err != nil {
			t.Fatalf("apply%s: decoding %s: %v", query, out, err)
		}
		return code, ar
	}
	if code, ar := apply("?alpha=0.3", `{"updates":[{"u":2,"v":3,"p":0.9}]}`); code != http.StatusOK {
		t.Fatalf("seeding apply: %d %+v", code, ar)
	}
	before := s.reg.get("g").snapshot()

	code, ar := apply("?alpha=0.7", `{"updates":[{"u":0,"v":5,"p":0.9}]}`)
	if code != http.StatusBadRequest || ar.Updates != 0 || !strings.Contains(ar.Error, "alpha") {
		t.Fatalf("mismatched alpha: %d %+v, want 400 naming alpha with no updates", code, ar)
	}
	if ar.Epoch != before.Epoch {
		t.Fatalf("mismatched alpha reported epoch %d, want unchanged %d", ar.Epoch, before.Epoch)
	}
	if after := s.reg.get("g").snapshot(); after != before || after.Graph.HasEdge(0, 5) {
		t.Fatalf("mismatched alpha changed the graph: epoch %d → %d", before.Epoch, after.Epoch)
	}

	for _, query := range []string{"?alpha=0.3", ""} {
		if code, ar := apply(query, `{"updates":[{"u":0,"v":5,"p":0.9}]}`); code != http.StatusOK || ar.Epoch <= before.Epoch {
			t.Fatalf("apply%q: %d %+v, want 200 under a new epoch", query, code, ar)
		}
	}
	if m := s.reg.get("g").maint; m.Alpha() != 0.3 {
		t.Fatalf("maintainer alpha = %v, want the seeded 0.3", m.Alpha())
	}
}
