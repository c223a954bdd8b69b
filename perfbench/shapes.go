package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	mule "github.com/uncertain-graphs/mule"
)

// shape is one query question muled can be asked: a miner, the graph it
// runs on, its threshold parameter and an optional result limit.
type shape struct {
	graph string // a graph kind (soc, small, mid, aff) and an instance number
	miner string
	param string  // the miner's threshold key ("" for densest)
	value float64 // its value
	limit int64   // 0 = none
}

// path is the request URL path and query for s.
func (s shape) path() string {
	q := url.Values{"miner": {s.miner}}
	if s.param != "" {
		q.Set(s.param, strconv.FormatFloat(s.value, 'g', -1, 64))
	}
	if s.limit > 0 {
		q.Set("limit", strconv.FormatInt(s.limit, 10))
	}
	return "/graphs/" + s.graph + "/query?" + q.Encode()
}

// key names the answer s asks for, ignoring a limit above every answer size.
func (s shape) key() string {
	k := s.graph + "/" + s.miner
	if s.param != "" {
		k += fmt.Sprintf("/%s=%g", s.param, s.value)
	}
	if s.limit > 0 && s.limit < missLimitBase {
		k += fmt.Sprintf("/limit=%d", s.limit)
	}
	return k
}

// Miss shapes, one per miner, each sized to mine in tens of milliseconds. The
// graph is a kind; each miss runs on the next instance of it (missShape).
// Every miss carries a limit of missLimitBase plus its op index: far above
// any answer size, so the answer is complete, but a fresh cache key.
var missShapes = []shape{
	{graph: "soc", miner: "cliques", param: "alpha", value: 0.1},
	{graph: "aff", miner: "bicliques", param: "alpha", value: 0.5},
	{graph: "small", miner: "quasi", param: "gamma", value: 0.8},
	{graph: "soc", miner: "truss", param: "eta", value: 0.5},
	{graph: "mid", miner: "core", param: "eta", value: 0.5},
	{graph: "mid", miner: "densest"},
	{graph: "soc", miner: "cluster", param: "centers", value: 8},
}

const missLimitBase = 1_000_000_000

// missShape returns the shape of the j-th miss: the miners in turn, each on
// the next instance of its graph kind, so every run averages over all
// instances.
func missShape(j int) shape {
	s := missShapes[j%len(missShapes)]
	s.graph += strconv.Itoa(j / len(missShapes) % serveInstances)
	return s
}

// Hot shapes are asked again and again, so after their first answer they are
// cache hits. The soc0 shape is invalidated by every /apply and re-warmed by
// muled; the others never change.
var (
	socHot    = shape{graph: applyGraph, miner: "cliques", param: "alpha", value: 0.9, limit: 100}
	hotShapes = []shape{
		{graph: "small0", miner: "core", param: "eta", value: 0.5},
		{graph: "small0", miner: "truss", param: "eta", value: 0.5},
		{graph: "aff0", miner: "bicliques", param: "alpha", value: 0.9},
		{graph: "small0", miner: "cluster", param: "centers", value: 4},
		{graph: "mid0", miner: "densest", limit: 3},
	}
)

// resultsDigest decodes the "results" array of a query response for miner
// into an order-independent digest. Probabilities and densities are rounded
// to nine significant digits.
func resultsDigest(miner string, raw json.RawMessage) (digest, error) {
	var d digest
	var err error
	switch miner {
	case "cliques":
		var rs []struct {
			Vertices []int   `json:"vertices"`
			Prob     float64 `json:"prob"`
		}
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(cliqueHash(r.Vertices, round9(r.Prob)))
			}
		}
	case "bicliques":
		var rs []struct {
			Left  []int   `json:"left"`
			Right []int   `json:"right"`
			Prob  float64 `json:"prob"`
		}
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(bicliqueHash(r.Left, r.Right, r.Prob))
			}
		}
	case "quasi":
		var rs [][]int
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(setHash(r, 3))
			}
		}
	case "truss":
		var rs []struct{ U, V, Truss int }
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(seqHash(uint64(r.U), uint64(r.V), uint64(r.Truss)))
			}
		}
	case "core":
		var rs []struct{ V, Core int }
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(seqHash(uint64(r.V), uint64(r.Core)))
			}
		}
	case "densest":
		var rs []struct {
			Vertices []int   `json:"vertices"`
			Density  float64 `json:"density"`
			Prob     float64 `json:"prob"`
		}
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(densestHash(r.Vertices, r.Density, r.Prob))
			}
		}
	case "cluster":
		var rs []struct {
			Center  int     `json:"center"`
			Members []int   `json:"members"`
			Prob    float64 `json:"prob"`
		}
		if err = json.Unmarshal(raw, &rs); err == nil {
			for _, r := range rs {
				d.add(clusterHash(r.Center, r.Members, r.Prob))
			}
		}
	default:
		err = fmt.Errorf("unknown miner %q", miner)
	}
	return d, err
}

func bicliqueHash(l, r []int, p float64) uint64 {
	return seqHash(setHash(l, 1), setHash(r, 2), fbits(round9(p)))
}

func densestHash(vs []int, density, p float64) uint64 {
	return seqHash(setHash(vs, 4), fbits(round9(density)), fbits(round9(p)))
}

func clusterHash(center int, members []int, p float64) uint64 {
	return seqHash(uint64(center), setHash(members, 5), fbits(round9(p)))
}

// mineInProcess answers s through the library on graph g (bipartite b for
// bicliques), with the digest scheme of resultsDigest.
func mineInProcess(s shape, graph *mule.Graph, b *mule.Bipartite) (digest, error) {
	ctx := context.Background()
	var d digest
	var opts []mule.Option
	if s.limit > 0 {
		opts = append(opts, mule.WithLimit(s.limit))
	}
	var err error
	switch s.miner {
	case "cliques":
		var q *mule.Query
		if q, err = mule.NewQuery(graph, s.value, opts...); err == nil {
			_, err = q.Run(ctx, func(c []int, p float64) bool { d.add(cliqueHash(c, round9(p))); return true })
		}
	case "bicliques":
		var q *mule.BicliqueQuery
		if q, err = mule.NewBicliqueQuery(b, s.value, opts...); err == nil {
			_, err = q.Run(ctx, func(l, r []int, p float64) bool { d.add(bicliqueHash(l, r, p)); return true })
		}
	case "quasi":
		var q *mule.QuasiQuery
		if q, err = mule.NewQuasiQuery(graph, append(opts, mule.WithGamma(s.value))...); err == nil {
			_, err = q.Run(ctx, func(vs []int) bool { d.add(setHash(vs, 3)); return true })
		}
	case "truss":
		var q *mule.TrussQuery
		if q, err = mule.NewTrussQuery(graph, s.value, opts...); err == nil {
			_, err = q.Run(ctx, func(e mule.EdgeTruss) bool {
				d.add(seqHash(uint64(e.U), uint64(e.V), uint64(e.Truss)))
				return true
			})
		}
	case "core":
		var q *mule.CoreQuery
		if q, err = mule.NewCoreQuery(graph, s.value, opts...); err == nil {
			_, err = q.Run(ctx, func(vc mule.VertexCore) bool { d.add(seqHash(uint64(vc.V), uint64(vc.Core))); return true })
		}
	case "densest":
		var q *mule.DensestQuery
		if q, err = mule.NewDensestQuery(graph, opts...); err == nil {
			_, err = q.Run(ctx, func(c mule.DenseSubgraph) bool {
				d.add(densestHash(c.Vertices, c.ExpectedDensity, c.Probability))
				return true
			})
		}
	case "cluster":
		var q *mule.ClusterQuery
		if q, err = mule.NewClusterQuery(graph, append(opts, mule.WithCenters(int(s.value)))...); err == nil {
			_, err = q.Run(ctx, func(c mule.ClusterSet) bool { d.add(clusterHash(c.Center, c.Members, c.Probability)); return true })
		}
	default:
		err = fmt.Errorf("unknown miner %q", s.miner)
	}
	return d, err
}
