package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// digest is an order-independent fingerprint of an answer: the number of
// elements and the wrapping sum of their mixed hashes. Two answers with the
// same elements in any order have equal digests.
type digest struct {
	N   int64
	Sum uint64
}

func (d *digest) add(h uint64) {
	d.N++
	d.Sum += mix64(h)
}

func (d digest) String() string { return fmt.Sprintf("count=%d hash=%016x", d.N, d.Sum) }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// setHash hashes a vertex set independently of the order it is listed in;
// salt separates the ID spaces of different sides or roles.
func setHash(vs []int, salt uint64) uint64 {
	var h uint64
	for _, v := range vs {
		h += mix64(uint64(v) + salt)
	}
	return mix64(h ^ salt)
}

// seqHash hashes a fixed-arity tuple of integers in order.
func seqHash(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h = mix64(h ^ x)
	}
	return h
}

func fbits(p float64) uint64 { return math.Float64bits(p) }

// round9 rounds p to nine significant digits, the precision cmd/mule prints
// and a margin that absorbs the last-bit differences of another
// multiplication order.
func round9(p float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(p, 'g', 9, 64), 64)
	return r
}

// cliqueHash hashes one clique with its probability.
func cliqueHash(vs []int, p float64) uint64 { return seqHash(setHash(vs, 0), fbits(p)) }

// golden holds reference digests for the default seed, keyed by workload and
// then by answer name.
type golden map[string]map[string]goldenDigest

type goldenDigest struct {
	Count int64  `json:"count"`
	Hash  string `json:"hash"`
}

// goldenPath is relative to the repository root, where the benchmark runs.
const goldenPath = "perfbench/golden.json"

// checkGolden compares the default seed's reference digests with the pinned
// ones and reports every mismatch on standard error. Other seeds have no
// pinned answers and always pass.
func checkGolden(cfg config, workload string, refs map[string]digest) bool {
	for name, d := range refs {
		fmt.Fprintf(os.Stderr, "reference %s %s %s\n", workload, name, d)
	}
	if cfg.seed != defaultSeed {
		return true
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading golden answers:", err)
		return false
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: parsing golden answers:", err)
		return false
	}
	ok := len(g[workload]) == len(refs)
	for name, d := range refs {
		want, found := g[workload][name]
		if !found || want.Count != d.N || want.Hash != fmt.Sprintf("%016x", d.Sum) {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: reference %s differs from golden %+v\n", workload, name, d, want)
			ok = false
		}
	}
	return ok
}
