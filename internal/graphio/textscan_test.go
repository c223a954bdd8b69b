package graphio

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// textScan is everything one text scan reports: the header, the edges
// (probabilities as bits, so NaN compares equal to itself) and the error
// text, which carries the line number.
type textScan struct {
	Hdr   Header
	Edges [][3]uint64
	Err   string
}

func scanTextResult(data []byte, fast bool) textScan {
	var s textScan
	hdr, err := scanTextLines(bytes.NewReader(data), func(u, v int, p float64) error {
		s.Edges = append(s.Edges, [3]uint64{uint64(u), uint64(v), math.Float64bits(p)})
		return nil
	}, fast)
	s.Hdr = hdr
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

// textScanCases covers what the byte-scanning fast path must either parse
// exactly like the strings.Fields reference or hand back to it: ASCII and
// Unicode whitespace, the signs and spellings strconv accepts or rejects,
// comments, every arity of the vertices directive, wrong field counts, and
// the endpoint range check.
var textScanCases = []struct {
	name, in string
}{
	{"plain", "0 1 0.5\n1 2 0.25\n"},
	{"tabs", "0\t1\t0.5\n\t1 \t2\t0.25\t\n"},
	{"crlf", "0 1 0.5\r\n1 2 0.25\r\n\r\n"},
	{"vtab-formfeed", "0\v1\f0.5\n\f1 2 0.25\v\n"},
	{"nbsp-separator", "0\u00a01 0.5\n"},
	{"nel-separator", "0 1\u00850.5\n"},
	{"unicode-trim", "\u00a00 1 0.5\u0085\n"},
	{"unicode-only-line", "\u00a0\n0 1 0.5\n"},
	{"non-ascii-field", "0 1 0.5\u00e9\n"},
	{"plus-sign", "+3 1 0.5\n"},
	{"negative-vertex", "0 1 0.5\n-1 2 0.5\n"},
	{"exponent", "0 1 1e-3\n"},
	{"hex-float", "0 1 0x1p-2\n"},
	{"underscore-vertex", "1_0 2 0.5\n"},
	{"underscore-prob", "0 1 1_0\n"},
	{"nan-inf", "0 1 NaN\n1 2 -Inf\n"},
	{"long-field", "0 1 0.500000000000000000000000000000000000000001\n"},
	{"comment-after-spaces", "   # comment\n0 1 0.5\n\t#\n"},
	{"comment-non-ascii", "# caf\u00e9\n0 1 0.5\n"},
	{"comment-mid-line", "0 1 0.5 # trailing\n"},
	{"blank-lines", "\n  \t \n0 1 0.5\n\n"},
	{"vertices-1-field", "vertices\n"},
	{"vertices-2-fields", "vertices 5\n0 1 0.5\n"},
	{"vertices-3-fields", "vertices 5 6\n"},
	{"vertices-negative", "vertices -1\n"},
	{"vertices-exceeded", "vertices 2\n0 5 0.5\n"},
	{"two-fields", "0 1 0.5\n\n0 1\n"},
	{"four-fields", "0 1 0.5 9\n"},
	{"bad-vertex-line-3", "0 1 0.5\n\n1 x 0.5\n"},
	{"bad-prob", "0 1 p\n"},
	{"above-max-endpoint", "0 2147483648 0.5\n"},
	{"at-max-endpoint", "2147483647 0 0.5\n"},
	{"nul-byte", "0\x001 0.5\n"},
	{"no-trailing-newline", "0 1 0.5"},
	{"empty", ""},
}

// TestScanTextFastPathMatchesReference runs every case through the fast
// path and through the strings.Fields reference alone: same edges, same
// Header, same error text and line number.
func TestScanTextFastPathMatchesReference(t *testing.T) {
	for _, tc := range textScanCases {
		t.Run(tc.name, func(t *testing.T) {
			fast := scanTextResult([]byte(tc.in), true)
			ref := scanTextResult([]byte(tc.in), false)
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("input %q\nfast      = %+v\nreference = %+v", tc.in, fast, ref)
			}
		})
	}
}

// TestParseTextLineFastDefers pins which lines the fast path handles itself
// and which it hands to the reference parser.
func TestParseTextLineFastDefers(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"0 1 0.5", true},
		{"\t0\v1\f0.5\r", true},
		{"  # anything \u00e9", true},
		{"   ", true},
		{"0\u00a01 0.5", false},
		{"vertices 5", false},
		{"0 1", false},
		{"0 1 0.5 9", false},
		{"0 x 0.5", false},
		{"0 2147483648 0.5", false},
	} {
		if _, _, _, _, ok := parseTextLineFast([]byte(tc.line)); ok != tc.ok {
			t.Errorf("parseTextLineFast(%q) ok = %v, want %v", tc.line, ok, tc.ok)
		}
	}
}

// TestScanTextAllocsIndependentOfLines pins the fast path as allocation-free
// per line: scanning 10,000 edge lines allocates no more objects than
// scanning 100 (the reader and scanner buffers, once).
func TestScanTextAllocsIndependentOfLines(t *testing.T) {
	input := func(lines int) []byte {
		var b strings.Builder
		b.WriteString("# generated\n")
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "%d\t%d %.9g\n", i, i+1+i%7, 0.001+float64(i%1000)/1000)
		}
		return []byte(b.String())
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := ScanEdges(bytes.NewReader(data), func(int, int, float64) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(input(100)), allocs(input(10_000))
	if large > small || large > 16 {
		t.Fatalf("ScanEdges allocations: %v for 100 lines, %v for 10,000; want a bound independent of line count", small, large)
	}
}

// FuzzScanTextFastPath: on arbitrary input the byte-scanning fast path and
// the strings.Fields reference agree on edges, Header and error text.
func FuzzScanTextFastPath(f *testing.F) {
	for _, tc := range textScanCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := scanTextResult(data, true)
		ref := scanTextResult(data, false)
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("input %q\nfast      = %+v\nreference = %+v", data, fast, ref)
		}
	})
}
