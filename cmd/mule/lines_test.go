package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// fmtInts is the fmt reference for a space-separated vertex list.
func fmtInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, " ")
}

// TestLineWriterMatchesFmt pins every output line shape of every -mine mode
// byte for byte against the fmt formatting it replaced, at probabilities
// spanning exact, rounded, tiny and subnormal values.
func TestLineWriterMatchesFmt(t *testing.T) {
	probs := []float64{1, 0.1, 1e-300, 0.123456789012, 5e-324, math.SmallestNonzeroFloat64 * 3}
	sets := [][]int{{7}, {0, 1, 2}, {3, 1 << 40, 12345678}}
	for _, p := range probs {
		for _, vs := range sets {
			n := vs[len(vs)-1]
			shapes := []struct {
				name  string
				write func(l *lineWriter)
				want  string
			}{
				{"clique", func(l *lineWriter) { printClique(l, vs, p, identity) },
					fmt.Sprintf("%.9g\t%s\n", p, fmtInts(vs))},
				{"clique-remapped", func(l *lineWriter) { printClique(l, vs, p, func(v int) int { return 2*v + 1 }) },
					fmt.Sprintf("%.9g\t%s\n", p, fmtInts(remap(vs, func(v int) int { return 2*v + 1 })))},
				{"biclique", func(l *lineWriter) {
					l.prob(p)
					l.sep('\t')
					l.ints(vs, identity)
					l.sep(' ')
					l.sep('|')
					for _, v := range vs {
						l.sep(' ')
						l.int(v)
					}
					l.end()
				}, fmt.Sprintf("%.9g\t%s | %s\n", p, fmtInts(vs), fmtInts(vs))},
				{"quasi", func(l *lineWriter) { l.ints(vs, identity); l.end() },
					fmtInts(vs) + "\n"},
				{"truss-edge", func(l *lineWriter) {
					l.int(vs[0])
					l.sep(' ')
					l.int(n)
					l.sep(' ')
					l.prob(p)
					l.end()
				}, fmt.Sprintf("%d %d %.9g\n", vs[0], n, p)},
				{"truss-decomposition", func(l *lineWriter) {
					l.int(vs[0])
					l.sep(' ')
					l.int(n)
					l.sep(' ')
					l.int(len(vs))
					l.end()
				}, fmt.Sprintf("%d %d %d\n", vs[0], n, len(vs))},
				{"core", func(l *lineWriter) { l.int(n); l.sep(' '); l.int(-len(vs)); l.end() },
					fmt.Sprintf("%d %d\n", n, -len(vs))},
				{"densest", func(l *lineWriter) {
					l.prob(p)
					l.sep('\t')
					l.prob(p * 3.5)
					l.sep('\t')
					l.ints(vs, identity)
					l.end()
				}, fmt.Sprintf("%.9g\t%.9g\t%s\n", p, p*3.5, fmtInts(vs))},
				{"cluster", func(l *lineWriter) {
					l.prob(p)
					l.sep('\t')
					l.int(n)
					l.sep('\t')
					l.ints(vs, identity)
					l.end()
				}, fmt.Sprintf("%.9g\t%d\t%s\n", p, n, fmtInts(vs))},
			}
			for _, sh := range shapes {
				var out bytes.Buffer
				w := bufio.NewWriter(&out)
				l := newLineWriter(w)
				sh.write(l)
				sh.write(l) // the reused buffer must start each line empty
				w.Flush()
				if got, want := out.String(), sh.want+sh.want; got != want {
					t.Errorf("%s (p=%v, %v): got %q, want %q", sh.name, p, vs, got, want)
				}
			}
		}
	}
}

func remap(vs []int, f func(int) int) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = f(v)
	}
	return out
}

// TestPrintCliqueAllocs pins the clique printer, the CLI's hottest output
// path, at zero allocations per line.
func TestPrintCliqueAllocs(t *testing.T) {
	l := newLineWriter(bufio.NewWriter(io.Discard))
	c := []int{12, 3456, 78901, 234567}
	if a := testing.AllocsPerRun(1000, func() { printClique(l, c, 0.123456789012, identity) }); a != 0 {
		t.Fatalf("printClique allocates %v objects per line, want 0", a)
	}
}
